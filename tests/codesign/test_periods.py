"""Tests of the period-assignment co-design."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.api import analyze
from repro.codesign.periods import (
    ControlLoopSpec,
    assign_periods,
    candidate_table,
)
from repro.errors import ModelError


@pytest.fixture(scope="module")
def two_loops():
    return [
        ControlLoopSpec(name="servo", plant="dc_servo", wcet=0.0012),
        ControlLoopSpec(name="pend", plant="inverted_pendulum", wcet=0.004),
    ]


class TestCandidateTable:
    def test_sorted_by_cost(self, two_loops):
        table = candidate_table(two_loops[0], points=4)
        costs = [c.cost for c in table]
        assert costs == sorted(costs)

    def test_periods_hold_the_wcet(self, two_loops):
        for candidate in candidate_table(two_loops[1], points=4):
            assert candidate.period >= two_loops[1].wcet

    def test_explicit_menu_respected(self):
        loop = ControlLoopSpec(
            name="x", plant="dc_servo", wcet=0.001,
            candidate_periods=(0.004, 0.008),
        )
        table = candidate_table(loop)
        assert sorted(c.period for c in table) == [0.004, 0.008]

    def test_oversized_wcet_rejected(self):
        loop = ControlLoopSpec(name="x", plant="dc_servo", wcet=0.5)
        with pytest.raises(ModelError):
            candidate_table(loop)


class TestAssignPeriods:
    def test_finds_valid_design(self, two_loops):
        result = assign_periods(two_loops, points=4)
        assert result is not None
        assigned = result.taskset(two_loops)
        assert analyze(assigned).stable

    def test_result_is_optimal_over_grid(self, two_loops):
        """Best-first must return the cheapest valid combination --
        verified against brute-force enumeration of the same grids."""
        from repro.assignment.backtracking import assign_backtracking
        from repro.rta.taskset import Task, TaskSet

        result = assign_periods(two_loops, points=3)
        tables = [candidate_table(loop, points=3) for loop in two_loops]
        best_brute = None
        for combo in itertools.product(*tables):
            if not all(np.isfinite(c.cost) for c in combo):
                continue
            tasks = TaskSet(
                [
                    Task(
                        name=loop.name,
                        period=c.period,
                        wcet=loop.wcet,
                        bcet=loop.wcet * loop.bcet_fraction,
                        stability=c.bound,
                    )
                    for loop, c in zip(two_loops, combo)
                ]
            )
            if tasks.utilization >= 1.0:
                continue
            if assign_backtracking(tasks).priorities is None:
                continue
            total = sum(c.cost for c in combo)
            if best_brute is None or total < best_brute:
                best_brute = total
        assert result is not None and best_brute is not None
        assert result.total_cost == pytest.approx(best_brute)

    def test_infeasible_budget_returns_none(self):
        # Demands so heavy no combination is schedulable.
        loops = [
            ControlLoopSpec(
                name="a", plant="dc_servo", wcet=0.004,
                candidate_periods=(0.006,),
            ),
            ControlLoopSpec(
                name="b", plant="dc_servo", wcet=0.004,
                candidate_periods=(0.006,),
            ),
        ]
        assert assign_periods(loops) is None

    def test_duplicate_names_rejected(self, two_loops):
        with pytest.raises(ModelError):
            assign_periods([two_loops[0], two_loops[0]])

    def test_combination_budget_respected(self, two_loops):
        result = assign_periods(two_loops, points=4, max_combinations=1)
        # Either the very first (cheapest) combo is valid, or None.
        if result is not None:
            assert result.combinations_checked == 1

    def test_taskset_roundtrip(self, two_loops):
        result = assign_periods(two_loops, points=3)
        ts = result.taskset(two_loops)
        assert {t.name for t in ts} == {"servo", "pend"}
        for loop in two_loops:
            task = ts.by_name(loop.name)
            assert task.period == pytest.approx(result.chosen[loop.name].period)


@pytest.mark.sweep
class TestParallelCandidateTables:
    def test_jobs_match_serial(self, two_loops):
        serial = assign_periods(two_loops, points=3, jobs=1)
        parallel = assign_periods(two_loops, points=3, jobs=2)
        assert serial is not None and parallel is not None
        assert parallel.total_cost == pytest.approx(serial.total_cost)
        assert parallel.priorities == serial.priorities
        assert {
            name: c.period for name, c in parallel.chosen.items()
        } == {name: c.period for name, c in serial.chosen.items()}
