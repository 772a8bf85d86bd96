"""Golden pre/post-refactor equivalence of every assignment algorithm.

The contract of the ``repro.search`` refactor: on any task set, every
algorithm returns **byte-identical** assignments, success flags, and
logical evaluation counts to the seed implementations (frozen in
``_seed_reference.py``) -- whether the search memo is cold, or shared
across the whole algorithm suite (maximal memo reuse), or shared across
task sets.  Pinned here on 250+ random UUniFast benchmark sets.
"""

from __future__ import annotations

import pytest

from repro.assignment import (
    assign_audsley,
    assign_backtracking,
    assign_exhaustive,
    assign_rate_monotonic,
    assign_slack_monotonic,
    assign_unsafe_quadratic,
    count_valid_orders,
)
from repro.memo import AnalysisMemo

from _population import random_taskset
from _seed_reference import SEED_ALGORITHMS, seed_count_valid_orders

ENGINE_ALGORITHMS = {
    "rate_monotonic": assign_rate_monotonic,
    "slack_monotonic": assign_slack_monotonic,
    "audsley": assign_audsley,
    "unsafe_quadratic": assign_unsafe_quadratic,
    "backtracking": assign_backtracking,
    "exhaustive": assign_exhaustive,
}

#: Suite order fixed so that the shared-memo runs hit a warmed memo.
SUITE = (
    "rate_monotonic",
    "slack_monotonic",
    "audsley",
    "unsafe_quadratic",
    "backtracking",
    "exhaustive",
)


def _assert_suite_equivalent(taskset, *, exhaustive: bool, where: str):
    shared = AnalysisMemo()
    for algorithm in SUITE:
        if algorithm == "exhaustive" and not exhaustive:
            continue
        expected = SEED_ALGORITHMS[algorithm](taskset)
        priorities, claims_valid, evaluations, backtracks = expected
        for memo in (None, shared):
            result = ENGINE_ALGORITHMS[algorithm](taskset, memo=memo)
            label = (
                f"{where}/{algorithm}/"
                f"{'shared' if memo is shared else 'cold'}"
            )
            assert result.priorities == priorities, label
            assert result.claims_valid == claims_valid, label
            assert result.evaluations == evaluations, label
            assert result.backtracks == backtracks, label


class TestSeedEquivalenceSmoke:
    """Fast-lane subset: a couple dozen sets, all algorithms."""

    def test_small_population(self):
        for n in (3, 4, 5):
            for index in range(8):
                taskset = random_taskset(n, index)
                _assert_suite_equivalent(
                    taskset, exhaustive=n <= 4, where=f"n{n}i{index}"
                )

    def test_count_valid_orders_matches_seed(self):
        for index in range(4):
            taskset = random_taskset(4, index)
            assert count_valid_orders(taskset) == seed_count_valid_orders(
                taskset
            )
            # And through a warmed shared memo.
            memo = AnalysisMemo()
            assign_exhaustive(taskset, memo=memo)
            assert (
                count_valid_orders(taskset, memo=memo)
                == seed_count_valid_orders(taskset)
            )


@pytest.mark.slow
class TestSeedEquivalence250:
    """The full pin: >= 250 random UUniFast sets, every algorithm."""

    def test_polynomial_algorithms_250_sets(self):
        checked = 0
        for n in (3, 4, 5, 6, 7):
            for index in range(50):
                taskset = random_taskset(n, index)
                _assert_suite_equivalent(
                    taskset, exhaustive=False, where=f"n{n}i{index}"
                )
                checked += 1
        assert checked == 250

    def test_exhaustive_100_sets(self):
        checked = 0
        for n in (3, 4, 5):
            for index in range(34):
                taskset = random_taskset(n, index)
                expected = SEED_ALGORITHMS["exhaustive"](taskset)
                shared = AnalysisMemo()
                # Warm the memo through the greedy suite first -- the
                # exhaustive run must be equivalent even fully cached.
                assign_audsley(taskset, memo=shared)
                assign_backtracking(taskset, memo=shared)
                for memo in (None, shared):
                    result = assign_exhaustive(taskset, memo=memo)
                    assert result.priorities == expected[0]
                    assert result.claims_valid == expected[1]
                    assert result.evaluations == expected[2]
                checked += 1
        assert checked == 102

    def test_backtracking_budget_path_matches_seed(self):
        for n, index in ((5, 3), (6, 7), (7, 11)):
            taskset = random_taskset(n, index)
            for budget in (1, 5, 12):
                expected = SEED_ALGORITHMS["backtracking"](
                    taskset, max_evaluations=budget
                )
                result = assign_backtracking(
                    taskset, max_evaluations=budget
                )
                assert result.priorities == expected[0]
                assert result.claims_valid == expected[1]
                assert result.evaluations == expected[2]
                assert result.backtracks == expected[3]
