"""Golden re-pin checks of the population kernel tier.

The population kernels promise that no recorded artifact hash moves: the
census sweep's ``canonical_sha256`` must be identical whether the
stacked kernels or the scalar ones compute it, and across ``--jobs``.
The scalar lane runs in-process at ``jobs=1`` with every size gate out
of reach, on a cold stability-bound table, so the record kernel and the
scalar margin loop compute every fixed point and every margin.  The fast
check pins a small census across lanes; the slow checks re-pin the full
1002-set census against :data:`CENSUS_SHA256`, the value
``perfbench/run.py`` checks as ``CENSUS_PIN``.
"""

from __future__ import annotations

import sys

import pytest

from repro.experiments.census import sweep_spec
from repro.jittermargin import linearbound, popmargin
from repro.rta import popbatch
from repro.sweep import run_sweep

#: ``canonical_sha256`` of the 1002-set census (334 benchmarks).
CENSUS_SHA256 = (
    "0040a14d7db0eb9db324612f454a2325b46cf1331d03e304795ec96e01ce3929"
)


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
        assert _census_sha(tmp_path, 334) == CENSUS_SHA256

    @pytest.mark.slow
    def test_full_census_identical_across_jobs(self, tmp_path):
        assert _census_sha(tmp_path, 334, jobs=1) == _census_sha(
            tmp_path, 334, jobs=2
        )

    @pytest.mark.slow
    def test_full_census_forced_scalar_matches_recorded_golden(
        self, tmp_path, monkeypatch, cold_bound_table
    ):
        assert _scalar_census_sha(tmp_path, 334, monkeypatch) == CENSUS_SHA256
