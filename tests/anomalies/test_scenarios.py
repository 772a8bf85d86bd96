"""Tests of the anomaly scenario construction/search."""

from __future__ import annotations

import pytest

from repro.anomalies.detectors import priority_raise_anomalies
from repro.anomalies.scenarios import (
    FIXTURE_SEARCH_SEED,
    FIXTURE_SEARCH_TRIALS,
    find_priority_raise_anomaly,
    priority_raise_anomaly_example,
)
from repro.api import analyze


class TestPinnedExample:
    def test_returns_taskset_and_name(self):
        taskset, name = priority_raise_anomaly_example()
        assert taskset.by_name(name).stability is not None
        assert len(taskset) == 4

    def test_original_assignment_is_valid(self):
        # Before the raise, the design is stable -- the anomaly is that an
        # apparent improvement breaks a *working* design.
        taskset, _ = priority_raise_anomaly_example()
        assert analyze(taskset).stable

    def test_anomaly_survives_detector_roundtrip(self):
        taskset, name = priority_raise_anomaly_example()
        events = priority_raise_anomalies(taskset)
        mine = [e for e in events if e.task_name == name]
        assert len(mine) == 1
        assert mine[0].destabilising


class TestProvenance:
    """The docstring's provenance claim, enforced: the pinned seeded search
    reproduces the fixture parameter-for-parameter."""

    def test_seeded_search_reproduces_pinned_fixture(self):
        found = find_priority_raise_anomaly(
            trials=FIXTURE_SEARCH_TRIALS,
            seed=FIXTURE_SEARCH_SEED,
            fixture_shaped=True,
        )
        fixture, name = priority_raise_anomaly_example()
        assert found is not None
        assert [
            (t.name, t.period, t.wcet, t.bcet, t.priority) for t in found
        ] == [(t.name, t.period, t.wcet, t.bcet, t.priority) for t in fixture]
        assert found.by_name(name).stability == fixture.by_name(name).stability

    def test_fixture_shaped_hits_are_destabilising_and_valid(self):
        found = find_priority_raise_anomaly(
            trials=FIXTURE_SEARCH_TRIALS,
            seed=FIXTURE_SEARCH_SEED,
            fixture_shaped=True,
        )
        assert analyze(found).stable
        events = priority_raise_anomalies(found)
        assert any(e.task_name == "ctl" and e.destabilising for e in events)


@pytest.mark.slow
class TestSearch:
    def test_search_finds_an_instance(self):
        found = find_priority_raise_anomaly(trials=30_000, seed=3)
        assert found is not None
        assert priority_raise_anomalies(found) != []

    def test_search_is_deterministic(self):
        a = find_priority_raise_anomaly(trials=30_000, seed=3)
        b = find_priority_raise_anomaly(trials=30_000, seed=3)
        assert a is not None and b is not None
        assert [t.name for t in a] == [t.name for t in b]
        assert [t.wcet for t in a] == [t.wcet for t in b]

    def test_search_can_fail_gracefully(self):
        assert find_priority_raise_anomaly(trials=1, seed=0) is None
