"""Semantics of the shared search context: memo, counters, kernels."""

from __future__ import annotations

import pytest

from _population import random_taskset
from repro.assignment.predicate import EvaluationCounter, stability_slack
from repro.errors import ModelError
from repro.rta.interface import latency_jitter
from repro.memo import AnalysisMemo
from repro.memo.kernels import evaluate_candidate, make_record
from repro.search import run_strategy


def _record(task):
    return make_record(
        task.period, task.wcet, task.bcet, task.stability, task.name
    )


class TestKernelsMatchScalarPredicate:
    """The batched kernels must be float-identical to the scalar path."""

    def test_evaluate_candidate_bit_equal_on_population(self):
        for n in (2, 3, 5, 8):
            for index in range(6):
                taskset = random_taskset(n, index, seed=77)
                tasks = list(taskset)
                for i, task in enumerate(tasks):
                    others = tasks[:i] + tasks[i + 1 :]
                    best, worst, slack = evaluate_candidate(
                        _record(task), [_record(t) for t in others]
                    )
                    times = latency_jitter(task, others)
                    assert best == times.best  # bit-equal, not approx
                    assert worst == times.worst
                    reference = stability_slack(
                        task, others, EvaluationCounter()
                    )
                    assert slack == reference

    def test_unbounded_task_uses_deadline_slack(self):
        taskset = random_taskset(3, 0, seed=78)
        task = taskset[0].copy()
        task.stability = None
        others = list(taskset)[1:]
        _, worst, slack = evaluate_candidate(
            _record(task), [_record(t) for t in others]
        )
        assert slack == task.period - worst


class TestContextMemo:
    def test_logical_count_ticks_on_hits(self):
        taskset = random_taskset(4, 1)
        context = AnalysisMemo()
        run = context.run()
        ids = context.intern_all(taskset)
        first = run.level_slacks(ids)
        again = run.level_slacks(ids)
        assert first == again
        assert run.counter.count == 8  # 2 x 4 logical queries
        assert run.counter.hits == 4  # second pass fully cached
        assert run.counter.recomputations == 4

    def test_interning_is_content_keyed(self):
        taskset = random_taskset(4, 2)
        context = AnalysisMemo()
        a = context.intern_all(taskset)
        b = context.intern_all(taskset.copy())  # fresh objects, same content
        assert a == b
        assert context.stats()["interned_tasks"] == 4

    def test_memo_shared_across_tasksets_with_common_tasks(self):
        taskset = random_taskset(5, 3)
        context = AnalysisMemo()
        run_strategy("audsley", taskset, context=context)
        # A second task set sharing 4 of 5 tasks: subproblems not
        # involving the changed task replay from the memo.
        import dataclasses

        tasks = [t.copy() for t in taskset]
        tasks[0] = dataclasses.replace(tasks[0], wcet=tasks[0].wcet * 0.9)
        from repro.rta.taskset import TaskSet

        result = run_strategy("audsley", TaskSet(tasks), context=context)
        assert result.cache_hits > 0

    def test_per_run_counters_are_independent(self):
        taskset = random_taskset(4, 4)
        context = AnalysisMemo()
        first = run_strategy("audsley", taskset, context=context)
        second = run_strategy("unsafe_quadratic", taskset, context=context)
        assert first.evaluations == second.evaluations
        assert first.cache_hits == 0
        assert second.cache_hits == second.evaluations  # fully warmed
        totals = context.stats()
        assert totals["evaluations"] == (
            first.evaluations + second.evaluations
        )
        assert totals["cache_hits"] == second.cache_hits

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ModelError):
            run_strategy("simulated_annealing", random_taskset(3, 0))

    def test_unknown_option_rejected(self):
        with pytest.raises(ModelError):
            run_strategy("audsley", random_taskset(3, 0), budget=3)
