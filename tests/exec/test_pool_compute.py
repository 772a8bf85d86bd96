"""The process-pool compute backend: byte-identity, isolation, crashes.

The serving contract extends to every worker count: a body computed in a
pool worker (with its worker-lifetime memo) must be byte-identical to a
cold direct façade call.  The crash tests pin the acceptance criterion
that a worker death mid-batch never drops accepted requests.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal

import pytest

from repro.api.service import analyze, assign
from repro.exec import PoolBackend
from repro.scenarios.workload import scenario_request_pool


def _kill_worker(pid):
    """SIGKILL one pool worker and wait until it has exited.

    ``os.kill`` returns before the process is gone: a worker still dying
    when the next batch is dispatched can let the survivor answer every
    slice first, and the crash then lands on a later batch.
    """
    (worker,) = [p for p in multiprocessing.active_children() if p.pid == pid]
    os.kill(pid, signal.SIGKILL)
    worker.join(timeout=10)
    assert worker.exitcode == -signal.SIGKILL


@pytest.fixture(scope="module")
def systems():
    return scenario_request_pool(unique=6, seed=21)


@pytest.fixture()
def pool():
    backend = PoolBackend(2, memo_entries=4096)
    yield backend
    backend.close()


class TestByteIdentity:
    def test_analyze_matches_direct_facade(self, pool, systems):
        results = pool.compute(("analyze",), systems)
        assert [ok for ok, _, _ in results] == [True] * len(systems)
        direct = [analyze(system).report_json() for system in systems]
        assert [body for _, body, _ in results] == direct

    def test_analyze_repeat_through_warm_memo_is_identical(
        self, pool, systems
    ):
        first = pool.compute(("analyze",), systems)
        second = pool.compute(("analyze",), systems)
        assert [b for _, b, _ in first] == [b for _, b, _ in second]

    def test_assign_matches_direct_facade(self, pool, systems):
        results = pool.compute(("assign", None), systems)
        direct = [assign(system).outcome_json() for system in systems]
        assert [body for _, body, _ in results] == direct

    def test_assign_with_algorithm(self, pool, systems):
        results = pool.compute(("assign", "rate_monotonic"), systems)
        direct = [
            assign(system, algorithm="rate_monotonic").outcome_json()
            for system in systems
        ]
        assert [body for _, body, _ in results] == direct

    def test_meta_carries_analysis_summary(self, pool, systems):
        results = pool.compute(("analyze",), systems[:2])
        for _, body, meta in results:
            assert meta is not None and "summary" in meta
            assert meta["summary"]["stable"] == json.loads(body)["stable"]

    @pytest.mark.slow
    def test_four_workers_byte_identical(self, systems):
        backend = PoolBackend(4, memo_entries=4096)
        try:
            results = backend.compute(("analyze",), systems)
            direct = [analyze(system).report_json() for system in systems]
            assert [body for _, body, _ in results] == direct
        finally:
            backend.close()


class TestIsolation:
    def test_poisoned_payload_fails_alone(self, pool, systems):
        # A payload the façade blows up on (not a system at all) must
        # come back as its own (False, error) without failing the
        # healthy batch-mates it was sliced alongside.
        batch = list(systems[:3]) + [None]
        results = pool.compute(("analyze",), batch)
        assert [ok for ok, _, _ in results] == [True, True, True, False]
        direct = [analyze(system).report_json() for system in systems[:3]]
        assert [body for _, body, _ in results[:3]] == direct
        assert "error" in json.loads(results[3][1])


class TestCrashFailover:
    def test_worker_kill_mid_run_drops_nothing(self, pool, systems):
        pids = pool.worker_pids()
        assert len(pids) == 2
        _kill_worker(pids[0])
        results = pool.compute(("analyze",), systems)
        # Every accepted item still answered, byte-identical.
        assert [ok for ok, _, _ in results] == [True] * len(systems)
        direct = [analyze(system).report_json() for system in systems]
        assert [body for _, body, _ in results] == direct
        stats = pool.stats()
        assert stats["worker_crashes"] >= 1
        assert stats["pools_rebuilt"] >= 1

    def test_pool_recovers_after_crash(self, pool, systems):
        _kill_worker(pool.worker_pids()[0])
        pool.compute(("analyze",), systems[:2])  # absorb the crash
        # The rebuilt pool serves normally again, workers alive.
        results = pool.compute(("analyze",), systems)
        assert all(ok for ok, _, _ in results)
        assert len(pool.worker_pids()) == 2

    def test_failover_counted_in_stats(self, pool, systems):
        before = pool.stats()
        assert before["worker_crashes"] == 0
        _kill_worker(pool.worker_pids()[1])
        pool.compute(("analyze",), systems)
        after = pool.stats()
        assert after["worker_crashes"] >= 1
        assert after["failover_items"] >= 1
        assert after["batches"] == before["batches"] + 1


class TestSlicing:
    def test_contiguous_order_preserving_slices(self):
        backend = PoolBackend(3, memo_entries=0)
        try:
            slices = backend._slice(list(range(8)))
            assert [len(part) for part in slices] == [3, 3, 2]
            assert [x for part in slices for x in part] == list(range(8))
            assert backend._slice([1]) == [[1]]
        finally:
            backend.close()
