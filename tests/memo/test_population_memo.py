"""``AnalysisMemo.population_analysis``: the memo layered on the
population kernel tier (what the execution plane's worker memos use on
the batch-analysis path).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.memo import AnalysisMemo
from repro.memo.core import EvaluationCounter
from repro.rta.taskset import Task, TaskSet

from tests.memo._memo_population import random_taskset


def _population(seed=71, sets=7, n=6):
    rng = np.random.default_rng(seed)
    return [random_taskset(rng, n) for _ in range(sets)]


class TestPopulationAnalysis:
    def test_matches_sequential_taskset_analysis(self):
        from repro.rta.popbatch import analyze_taskset

        tasksets = _population()
        sequential = [analyze_taskset(ts) for ts in tasksets]
        population = AnalysisMemo().population_analysis(tasksets)
        assert population == sequential

    def test_matches_popbatch_analyze_population(self):
        from repro.rta.popbatch import analyze_population

        tasksets = _population(seed=72)
        assert AnalysisMemo().population_analysis(
            tasksets
        ) == analyze_population(tasksets)

    def test_counters_match_sequentially_memoised_run(self):
        tasksets = _population(seed=73)
        # Duplicate a whole set: sequentially, its subproblems all hit.
        tasksets = tasksets + [tasksets[0]]

        sequential_memo = AnalysisMemo()
        sequential_counter = EvaluationCounter()
        sequential = [
            sequential_memo.population_analysis([ts], sequential_counter)[0]
            for ts in tasksets
        ]

        population_memo = AnalysisMemo()
        population_counter = EvaluationCounter()
        population = population_memo.population_analysis(
            tasksets, population_counter
        )

        assert population == sequential
        assert population_counter.count == sequential_counter.count
        assert population_counter.hits == sequential_counter.hits
        assert (
            population_memo.stats()["cache_hits"]
            == sequential_memo.stats()["cache_hits"]
        )

    def test_warm_memo_answers_without_recomputation(self):
        tasksets = _population(seed=74)
        memo = AnalysisMemo()
        first = memo.population_analysis(tasksets)
        recomputed_before = memo.stats()["recomputations"]
        second = memo.population_analysis(tasksets)
        assert second == first
        assert memo.stats()["recomputations"] == recomputed_before

    def test_kernel_error_replays_pairs_in_input_order(self):
        # An infinite deadline against a saturated hp set never settles:
        # the error surfaces on that pair, after every earlier pair was
        # evaluated, counted and stored exactly as a serial walk would.
        good = _population(seed=76, sets=3)
        bad = TaskSet(
            [
                Task(name="hog", period=1.0, wcet=1.0, priority=2),
                Task(name="bad", period=math.inf, wcet=1.0, priority=1),
            ]
        )
        memo = AnalysisMemo()
        counter = EvaluationCounter()
        with pytest.raises(ScheduleError, match="'bad'"):
            memo.population_analysis(good + [bad] + good[:1], counter)
        assert counter.count == sum(len(ts) for ts in good) + 2
        assert memo.stats()["memo_entries"] == counter.count - counter.hits - 1

    def test_bounded_memo_still_correct(self):
        tasksets = _population(seed=75)
        bounded = AnalysisMemo(max_entries=4).population_analysis(tasksets)
        fresh = AnalysisMemo().population_analysis(tasksets)
        assert bounded == fresh


class TestTaskVerdictMemoRoute:
    def test_memo_routed_verdict_bit_identical(self):
        from repro.api.service import task_verdict

        rng = np.random.default_rng(81)
        memo = AnalysisMemo()
        for _ in range(5):
            taskset = random_taskset(rng, 6)
            for task in taskset:
                hp = taskset.higher_priority(task)
                plain = task_verdict(task, hp)
                routed = task_verdict(task, hp, memo=memo)
                assert routed == plain
                # And again from the warm memo.
                assert task_verdict(task, hp, memo=memo) == plain

    def test_explicit_deadline_takes_scalar_path(self):
        from repro.api.service import task_verdict

        rng = np.random.default_rng(82)
        taskset = random_taskset(rng, 5)
        task = next(iter(taskset))
        memo = AnalysisMemo()
        verdict = task_verdict(
            task,
            taskset.higher_priority(task),
            deadline=task.period / 2,
            memo=memo,
        )
        # Nothing entered the memo: explicit deadlines are not memoisable.
        assert memo.stats()["evaluations"] == 0
        assert verdict == task_verdict(
            task, taskset.higher_priority(task), deadline=task.period / 2
        )
