"""``AnalysisMemo.population_analysis``: the memo layered on the
population kernel tier (what the execution plane's worker memos use on
the batch-analysis path).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError, ScheduleError
from repro.memo import AnalysisMemo
from repro.memo.core import EvaluationCounter
from repro.rta.interface import TasksetAnalysis
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


def _comprehension_analysis(memo, tasksets, counter):
    """The reference: hp id lists from the quadratic comprehension that
    ``population_analysis`` used before its keys came from one priority
    order, keyed as ``frozenset(hp)`` -- the same batched ``_entries``
    call, so only the key derivation differs."""
    tids, hp_lists, task_lists = [], [], []
    for taskset in tasksets:
        taskset.check_distinct_priorities()
        tasks = list(taskset)
        ids = memo.intern_all(tasks)
        priorities = [task.priority for task in tasks]
        hp_lists.extend(
            [ids[j] for j, other in enumerate(priorities) if other > priority]
            for priority in priorities
        )
        tids.extend(ids)
        task_lists.append(tasks)
    entries = memo._entries(
        tids, [frozenset(hp) for hp in hp_lists], hp_lists.__getitem__, counter
    )
    results, offset = [], 0
    for tasks in task_lists:
        results.append(
            TasksetAnalysis.build(tasks, entries[offset : offset + len(tasks)])
        )
        offset += len(tasks)
    return results


def _bits(analyses):
    """Every response time, bit for bit (``float.hex``), in task order."""
    return [
        [(name, t.best.hex(), t.worst.hex()) for name, t in a.times.items()]
        for a in analyses
    ]


def _variant(taskset, rng, kind):
    tasks = [task.copy() for task in taskset]
    if kind == "shuffle":
        rng.shuffle(tasks)
    elif kind == "tail_edit":
        # An edited model: the lowest-priority task's WCET moves.
        k = min(range(len(tasks)), key=lambda i: tasks[i].priority)
        task = tasks[k]
        wcet = min(max(task.wcet * float(rng.uniform(0.5, 1.5)), task.bcet), task.period)
        tasks[k] = dataclasses.replace(task, wcet=wcet)
    elif kind == "float_priorities":
        # Mixed int and float priorities, same order as ``>`` sees it.
        tasks = [
            dataclasses.replace(t, priority=t.priority + 0.5) if i % 2 else t
            for i, t in enumerate(tasks)
        ]
    return TaskSet(tasks)


class TestPriorityOrderKeys:
    """hp-set keys from one priority order against the comprehension."""

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 9),
        kinds=st.lists(
            st.sampled_from(["same", "shuffle", "tail_edit", "float_priorities"]),
            min_size=1,
            max_size=6,
        ),
        split=st.integers(1, 3),
    )
    def test_matches_comprehension_reference(self, seed, n, kinds, split):
        rng = np.random.default_rng(seed)
        base = random_taskset(rng, n)
        tasksets = [base] + [_variant(base, rng, kind) for kind in kinds]
        calls = [tasksets[k : k + split] for k in range(0, len(tasksets), split)]
        for bound in (None, 5):
            memo = AnalysisMemo(max_entries=bound)
            reference = AnalysisMemo(max_entries=bound)
            for call in calls:
                counter, expected_counter = EvaluationCounter(), EvaluationCounter()
                got = memo.population_analysis(call, counter)
                expected = _comprehension_analysis(
                    reference, call, expected_counter
                )
                assert _bits(got) == _bits(expected)
                assert got == expected
                assert (counter.count, counter.hits) == (
                    expected_counter.count, expected_counter.hits,
                )
            # The same stored keys and values, in the same LRU order.
            assert list(memo.memo.items()) == list(reference.memo.items())
            assert memo.stats() == {
                **reference.stats(), "kernel_seconds": memo.kernel_seconds
            }


class TestNanPriority:
    def test_check_rejects_nan_priority(self):
        tasks = [
            Task(name="a", period=10.0, wcet=1.0, priority=2),
            Task(name="b", period=10.0, wcet=1.0, priority=float("nan")),
        ]
        with pytest.raises(ModelError, match="task 'b' has a NaN priority"):
            TaskSet(tasks).check_distinct_priorities()

    def test_population_analysis_rejects_nan_priority(self):
        # A NaN priority compares false both ways; the priority order
        # the hp keys are built from would be arbitrary.
        (taskset,) = _population(seed=77, sets=1, n=4)
        tasks = list(taskset)
        tasks[1] = dataclasses.replace(tasks[1], priority=float("nan"))
        memo = AnalysisMemo()
        with pytest.raises(ModelError, match="NaN priority"):
            memo.population_analysis([TaskSet(tasks)])
        assert memo.stats()["evaluations"] == 0


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
