"""Tests of the Monte-Carlo anomaly census."""

from __future__ import annotations

import pytest

from repro.anomalies.census import AnomalyCensus
from repro.experiments.census import run_census

pytestmark = pytest.mark.slow


class TestCensusAccounting:
    def test_record_and_rates(self):
        census = AnomalyCensus()
        census.record("priority_raise", checked=10, found=[])
        assert census.anomaly_rate("priority_raise") == 0.0
        assert census.destabilising_rate("priority_raise") == 0.0

    def test_unknown_kind_rate_is_zero(self):
        assert AnomalyCensus().anomaly_rate("nope") == 0.0


class TestCensusRun:
    @pytest.fixture(scope="class")
    def census(self):
        return run_census(task_counts=(4,), benchmarks=40, seed=5).censuses[4]

    def test_counts_are_consistent(self, census):
        assert census.benchmarks == 40
        assert 0 <= census.feasible <= 40
        for kind in ("priority_raise", "wcet_decrease", "period_increase"):
            assert census.anomalous_moves[kind] <= census.moves_checked[kind]
            assert census.destabilising_moves[kind] <= census.anomalous_moves[kind]

    def test_moves_scale_with_feasible_benchmarks(self, census):
        # 3 one-level raises per feasible 4-task benchmark.
        assert census.moves_checked["priority_raise"] == 3 * census.feasible
        # 6 ordered interferer/observed pairs per benchmark.
        assert census.moves_checked["wcet_decrease"] == 6 * census.feasible

    def test_anomalies_are_rare(self, census):
        # The paper's thesis, quantified: on valid random designs the
        # anomalous-move rate is at most a few percent.
        for kind in ("priority_raise", "wcet_decrease", "period_increase"):
            assert census.anomaly_rate(kind) < 0.2

    def test_census_keeps_no_events(self, census):
        # Sweep records carry counts only; no AnomalyEvent survives.
        assert census.events == []
