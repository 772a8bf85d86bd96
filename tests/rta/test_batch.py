"""Equivalence tests of the task-set pass on the record kernel.

The contract: :func:`repro.rta.popbatch.analyze_taskset` must agree with
the reference per-task analyses (:func:`worst_case_response_time` /
:func:`best_case_response_time` via :func:`latency_jitter`) on every task
of every task set -- same infinities, same guard decisions, same values.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.assignment.unsafe_quadratic import assign_unsafe_quadratic
from repro.assignment.validate import validate_assignment
from repro.benchgen.uunifast import uunifast
from repro.rta.popbatch import (
    analyze_population,
    analyze_taskset,
    guarded_ceil_array,
)
from repro.rta.interface import latency_jitter
from repro.rta.taskset import Task, TaskSet
from repro.rta.wcrt import guarded_ceil

def _random_uunifast_taskset(rng: np.random.Generator, n: int) -> TaskSet:
    """A priority-assigned UUniFast task set with random rational periods."""
    utilization = float(rng.uniform(0.3, 0.95))
    shares = uunifast(n, utilization, rng)
    periods = rng.choice([1.0, 2.0, 2.5, 4.0, 5.0, 8.0, 10.0, 20.0], size=n)
    tasks = []
    for k, (share, period) in enumerate(zip(shares, periods)):
        wcet = min(max(share * period, 1e-6), period)
        bcet = max(wcet * float(rng.uniform(0.2, 1.0)), 1e-9)
        tasks.append(
            Task(
                name=f"t{k}",
                period=float(period),
                wcet=float(wcet),
                bcet=float(bcet),
                priority=n - k,
            )
        )
    return TaskSet(tasks)


class TestGuardedCeilArray:
    def test_matches_scalar_on_boundaries(self):
        # Quotients within/outside the relative guard of an integer,
        # including the exact boundary cases the scalar guard defines.
        quotients = np.array(
            [
                1.0,
                2.0 - 1e-12,
                2.0 + 1e-12,
                2.0 - 1e-6,
                2.0 + 1e-6,
                0.5,
                3.999999999,
                4.000000001,
                1e6 * (1.0 + 1e-10),
                7.3,
                # Positive quotients inside the guard band of zero still
                # count one job; only an exact zero ceils to zero.
                1e-12,
                1e-10,
                0.0,
            ]
        )
        batched = guarded_ceil_array(quotients)
        scalars = [guarded_ceil(float(q)) for q in quotients]
        assert batched.tolist() == scalars

    def test_guard_is_relative(self):
        # 1e9 + 0.4 is within 1e-9 *relative* of 1e9: rounds, not ceils.
        assert guarded_ceil_array(np.array([1e9 + 0.4]))[0] == 1e9
        assert guarded_ceil(1e9 + 0.4) == 1e9


class TestEquivalence:
    def test_agrees_on_500_random_uunifast_tasksets(self):
        """The ISSUE-level contract, in one deterministic sweep."""
        rng = np.random.default_rng(20170327)
        checked_tasks = 0
        infinite_seen = 0
        for case in range(500):
            n = int(rng.integers(2, 12))
            taskset = _random_uunifast_taskset(rng, n)
            batched = analyze_taskset(taskset)
            for task in taskset:
                reference = latency_jitter(task, taskset.higher_priority(task))
                fast = batched.times[task.name]
                checked_tasks += 1
                if math.isinf(reference.worst):
                    infinite_seen += 1
                # Same hp order, same accumulation: bitwise equal.
                assert fast.worst == reference.worst, task
                assert fast.best == reference.best, task
        assert checked_tasks > 1000
        # The drawn utilisations must actually exercise the inf branch.
        assert infinite_seen > 0

    def test_integer_period_results_are_exact(self):
        """On integer-harmonic sets the fixed points are exact integers."""
        taskset = TaskSet(
            [
                Task(name="hi", period=4.0, wcet=1.0, bcet=0.5, priority=3),
                Task(name="me", period=8.0, wcet=2.0, bcet=1.0, priority=2),
                Task(name="lo", period=16.0, wcet=3.0, bcet=2.0, priority=1),
            ]
        )
        batched = analyze_taskset(taskset)
        for task in taskset:
            reference = latency_jitter(task, taskset.higher_priority(task))
            assert batched.times[task.name].worst == reference.worst
            assert batched.times[task.name].best == reference.best

    def test_utilisation_screen_boundary(self):
        """hp utilisation exactly 1: scalar (finite limit) and batch agree."""
        taskset = TaskSet(
            [
                Task(name="hog", period=2.0, wcet=2.0, priority=2),
                Task(name="starved", period=10.0, wcet=1.0, priority=1),
            ]
        )
        batched = analyze_taskset(taskset)
        starved = taskset.by_name("starved")
        reference = latency_jitter(starved, taskset.higher_priority(starved))
        assert math.isinf(reference.worst)
        assert math.isinf(batched.times["starved"].worst)
        assert not batched.deadlines_met


class TestBatchValidate:
    def test_matches_validate_assignment_on_benchmarks(self):
        from repro.benchgen.taskgen import generate_control_taskset

        tasksets = []
        for n in (4, 8):
            for index in range(25):
                rng = np.random.default_rng([5, n, index])
                taskset = generate_control_taskset(n, rng)
                assigned = assign_unsafe_quadratic(taskset).apply_to(taskset)
                tasksets.append(assigned)
        reference = [validate_assignment(ts).valid for ts in tasksets]
        assert [analyze_taskset(ts).stable for ts in tasksets] == reference

    def test_violating_names_match_report(self):
        taskset = TaskSet(
            [
                Task(name="hog", period=2.0, wcet=2.0, priority=2),
                Task(name="starved", period=10.0, wcet=1.0, priority=1),
            ]
        )
        analysis = analyze_taskset(taskset)
        report = validate_assignment(taskset)
        assert analysis.stable == report.valid
        assert analysis.violating == report.violating_tasks

    def test_batch_response_times_shape(self):
        taskset = TaskSet(
            [
                Task(name="a", period=4.0, wcet=1.0, priority=2),
                Task(name="b", period=8.0, wcet=2.0, priority=1),
            ]
        )
        analyses = analyze_population([taskset, taskset])
        assert len(analyses) == 2
        assert set(analyses[0].times) == {"a", "b"}

    def test_requires_distinct_priorities(self):
        from repro.errors import ModelError

        taskset = TaskSet(
            [
                Task(name="a", period=4.0, wcet=1.0),
                Task(name="b", period=8.0, wcet=2.0),
            ]
        )
        with pytest.raises(ModelError):
            analyze_taskset(taskset)
