"""Golden re-pin checks of the population kernel tier.

The population kernels promise that no recorded artifact hash moves: the
census sweep's ``canonical_sha256`` must be identical whether the
stacked kernels or the scalar ones compute it, and across ``--jobs``.
The scalar lane runs in-process at ``jobs=1`` with every size gate out
of reach, on a cold stability-bound table, so the record kernel and the
scalar margin loop compute every fixed point and every margin.  The fast
check pins a small census across lanes; the slow checks re-pin the full
1002-set number recorded in ``BENCH_sweep.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.experiments.census import sweep_spec
from repro.jittermargin import linearbound, popmargin
from repro.rta import popbatch
from repro.sweep import run_sweep

_REPO = Path(__file__).resolve().parents[2]


def _census_sha(tmp_path, benchmarks, *, jobs=1, tag=""):
    result = run_sweep(
        sweep_spec(benchmarks=benchmarks),
        cache_dir=str(tmp_path / f"cache-{jobs}{tag}"),
        jobs=jobs,
    )
    return result.canonical_sha256()


def _scalar_census_sha(tmp_path, benchmarks, monkeypatch):
    """The census with every population gate out of reach (jobs=1)."""
    with monkeypatch.context() as patch:
        patch.setattr(popbatch, "MIN_PROBLEM_POPULATION", sys.maxsize)
        patch.setattr(popmargin, "MIN_CURVE_POPULATION", sys.maxsize)
        return _census_sha(tmp_path, benchmarks, tag="-scalar")


class TestCensusShaAcrossTiers:
    def test_small_census_identical_on_off(
        self, tmp_path, monkeypatch, cold_bound_table
    ):
        scalar = _scalar_census_sha(tmp_path, 8, monkeypatch)
        # Cold again, so the stacked margins compute their own bounds.
        linearbound.BOUND_TABLE.cache_clear()
        assert _census_sha(tmp_path, 8) == scalar

    @pytest.mark.slow
    def test_full_census_matches_recorded_golden(self, tmp_path):
        bench = json.loads((_REPO / "BENCH_sweep.json").read_text())
        assert _census_sha(tmp_path, 334) == bench["canonical_sha256"]

    @pytest.mark.slow
    def test_full_census_identical_across_jobs(self, tmp_path):
        assert _census_sha(tmp_path, 334, jobs=1) == _census_sha(
            tmp_path, 334, jobs=2
        )

    @pytest.mark.slow
    def test_full_census_forced_scalar_matches_recorded_golden(
        self, tmp_path, monkeypatch, cold_bound_table
    ):
        bench = json.loads((_REPO / "BENCH_sweep.json").read_text())
        assert (
            _scalar_census_sha(tmp_path, 334, monkeypatch)
            == bench["canonical_sha256"]
        )
