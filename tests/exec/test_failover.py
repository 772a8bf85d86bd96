"""Crash containment outside the daemon: kill workers mid-run.

Satellite contract: a worker death mid-sweep and mid-scenario-validation
must leave the run complete, with ``failover_items > 0`` and a canonical
sha identical to the serial run.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.exec import PoolBackend
from repro.sweep import SweepSpec, run_sweep
from repro.sweep._testing import pool_crashing_worker

pytestmark = pytest.mark.sweep


class TestSweepFailover:
    def _spec(self):
        # Two marked items in different chunks: at least one pool worker
        # dies mid-sweep; the in-process rerun (in_worker() is False)
        # computes the same records deterministically.
        return SweepSpec(
            name="crashy",
            worker=pool_crashing_worker,
            items=tuple(
                {"index": i, "boom": i in (2, 7)} for i in range(10)
            ),
            seed=3,
            chunk_size=2,
        )

    def test_worker_death_mid_sweep_completes_with_failover(self):
        serial = run_sweep(self._spec(), jobs=1)
        backend = PoolBackend(2, memo_entries=0)
        try:
            survived = run_sweep(self._spec(), backend=backend)
        finally:
            backend.close()
        assert survived.canonical_sha256() == serial.canonical_sha256()
        assert backend.failover_items > 0
        assert backend.worker_crashes >= 1
        assert backend.pools_rebuilt >= 1

    def test_backend_usable_after_crash(self):
        backend = PoolBackend(2, memo_entries=0)
        try:
            run_sweep(self._spec(), backend=backend)
            crashes = backend.worker_crashes
            clean = SweepSpec(
                name="clean",
                worker=pool_crashing_worker,
                items=tuple({"index": i} for i in range(6)),
                seed=3,
                chunk_size=2,
            )
            serial = run_sweep(clean, jobs=1)
            after = run_sweep(clean, backend=backend)
            assert after.canonical_sha256() == serial.canonical_sha256()
            # The rebuilt pool computed the clean sweep without failover.
            assert backend.worker_crashes == crashes
        finally:
            backend.close()


class TestScenarioValidationFailover:
    @pytest.mark.scenario
    def test_sigkill_mid_validation_sha_unchanged(self):
        from repro.scenarios.validate import sweep_spec

        spec = sweep_spec(
            scenario="smoke_single_loop", instances=6, horizon_periods=30,
            chunk_size=1,
        )
        serial = run_sweep(spec, jobs=1)
        backend = PoolBackend(2, memo_entries=0)
        try:
            # Kill a live worker, then dispatch: futures already queued
            # to the broken pool fail over to in-process computation.
            os.kill(backend.worker_pids()[0], signal.SIGKILL)
            survived = run_sweep(spec, backend=backend)
        finally:
            backend.close()
        assert survived.canonical_sha256() == serial.canonical_sha256()
        assert backend.failover_items > 0
        assert backend.worker_crashes >= 1


class TestBoundPlanFailover:
    def test_sigkill_before_census_bound_plan_sha_unchanged(
        self, cold_bound_table
    ):
        from repro.experiments.census import sweep_spec

        spec = sweep_spec(task_counts=(3, 4), benchmarks=3, seed=91, chunk_size=2)
        keys = set(spec.bound_keys(list(spec.items), spec.params, spec.seed))
        backend = PoolBackend(2, memo_entries=0)
        try:
            # The parent table is cold, so the bound plan -- every key to
            # compute -- is the first plan that meets the broken pool.
            os.kill(backend.worker_pids()[0], signal.SIGKILL)
            survived = run_sweep(spec, backend=backend)
        finally:
            backend.close()
        serial = run_sweep(spec, jobs=1)
        assert survived.canonical_sha256() == serial.canonical_sha256()
        assert survived.meta["bounds"]["computed"] == len(keys)
        assert survived.meta["bounds"]["chunk_misses"] == 0
        assert backend.failover_items > 0
        assert backend.worker_crashes >= 1
