"""Core semantics of the shared analysis memo.

The search-context suite (``tests/search/test_context.py``) pins the
memo/counter semantics the engine inherited; this suite covers what the
promotion to :mod:`repro.memo` added: the ``context=`` keyword alias,
bounded (LRU) operation, consistent ``stats()`` snapshots, and thread
safety of the aggregate counters (the serve daemon shares one memo
between its event loop and dispatch worker).
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ModelError
from repro.memo import AnalysisMemo, EvaluationCounter
from repro.rta.taskset import TaskSet
from repro.search import run_strategy

from _memo_population import random_population


class TestDeprecatedAlias:
    def test_analysis_memo_does_not_warn(self, recwarn):
        AnalysisMemo()
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

    def test_deprecated_context_still_drives_a_strategy(self):
        (taskset,) = random_population(n=4, count=1, seed=101)
        context = AnalysisMemo()
        result = run_strategy("audsley", taskset, context=context)
        fresh = run_strategy("audsley", taskset)
        assert result.priorities == fresh.priorities
        assert result.evaluations == fresh.evaluations

    def test_memo_and_context_aliases_conflict_rejected(self):
        (taskset,) = random_population(n=3, count=1, seed=102)
        with pytest.raises(ModelError):
            run_strategy(
                "audsley", taskset, memo=AnalysisMemo(), context=AnalysisMemo()
            )

    def test_run_exposes_memo_alias(self):
        memo = AnalysisMemo()
        run = memo.run()
        assert run.memo is memo
        assert run.context is memo


class TestBoundedMemo:
    def test_max_entries_must_be_positive(self):
        with pytest.raises(ModelError):
            AnalysisMemo(max_entries=0)
        with pytest.raises(ModelError):
            AnalysisMemo(max_entries=-4)

    def test_lru_eviction_bounds_the_memo(self):
        population = random_population(n=6, count=8, seed=103)
        memo = AnalysisMemo(max_entries=16)
        for taskset in population:
            run_strategy("audsley", taskset, memo=memo)
        stats = memo.stats()
        assert stats["memo_entries"] <= 16
        assert stats["max_entries"] == 16
        assert stats["evictions"] > 0
        # Interning stays unbounded: records are tiny, and keeping them
        # preserves id stability for entries still in the memo.
        assert stats["interned_tasks"] == 6 * 8

    def test_evicted_entries_recompute_to_identical_values(self):
        (taskset,) = random_population(n=5, count=1, seed=104)
        unbounded = AnalysisMemo()
        (reference,) = unbounded.population_analysis([taskset])
        tiny = AnalysisMemo(max_entries=2)
        (first,) = tiny.population_analysis([taskset])
        # Every entry evicted by now (5 subproblems through 2 slots) --
        # a second pass recomputes rather than replays, same floats.
        counter = EvaluationCounter()
        (second,) = tiny.population_analysis([taskset], counter)
        assert counter.hits < counter.count  # genuinely recomputed
        for name in reference.times:
            assert first.times[name] == reference.times[name]
            assert second.times[name] == reference.times[name]
        assert tiny.stats()["evictions"] > 0

    def test_unbounded_memo_never_evicts(self):
        population = random_population(n=5, count=6, seed=105)
        memo = AnalysisMemo()
        for taskset in population:
            run_strategy("audsley", taskset, memo=memo)
        stats = memo.stats()
        assert stats["max_entries"] is None
        assert stats["evictions"] == 0


class TestStatsSnapshot:
    def test_snapshot_keys_and_identities(self):
        memo = AnalysisMemo()
        (taskset,) = random_population(n=4, count=1, seed=106)
        run = memo.run()
        ids = memo.intern_all(taskset)
        run.level_slacks(ids)
        run.level_slacks(ids)
        stats = memo.stats()
        assert set(stats) == {
            "interned_tasks",
            "memo_entries",
            "max_entries",
            "evictions",
            "evaluations",
            "cache_hits",
            "recomputations",
            "kernel_seconds",
        }
        assert stats["evaluations"] == 8
        assert stats["cache_hits"] == 4
        assert stats["recomputations"] == 4
        assert stats["memo_entries"] == 4
        assert stats["kernel_seconds"] > 0.0

    def test_totals_aggregate_across_concurrent_runs(self):
        """No lost counter updates when runs execute on many threads.

        This is the serve-daemon shape: one process-lifetime memo,
        queries arriving from more than one thread.  The shared totals
        must equal the sum of the per-run counters exactly -- a lost
        update would show up as a shortfall.
        """
        population = random_population(n=6, count=12, seed=107)
        memo = AnalysisMemo()
        counters = []
        lock = threading.Lock()

        def worker(taskset: TaskSet) -> None:
            counter = EvaluationCounter()
            for _ in range(25):
                memo.population_analysis([taskset], counter)
            with lock:
                counters.append(counter)

        threads = [
            threading.Thread(target=worker, args=(taskset,))
            for taskset in population
            for _ in range(2)  # two threads per task set: real contention
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = memo.stats()
        assert stats["evaluations"] == sum(c.count for c in counters)
        assert stats["cache_hits"] == sum(c.hits for c in counters)
        assert stats["evaluations"] == 12 * 2 * 25 * 6
        # Each distinct subproblem was computed at most once per *racing
        # pair*; with put-if-absent the memo holds exactly one entry per
        # (task, hp-set) of the population.
        assert stats["memo_entries"] == 12 * 6
