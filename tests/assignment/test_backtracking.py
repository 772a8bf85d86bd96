"""Tests of Algorithm 1 (backtracking priority assignment)."""

from __future__ import annotations

import pytest

from repro.api import analyze
from repro.assignment.backtracking import assign_backtracking


class TestBacktracking:
    def test_solves_easy_instance(self, easy_taskset):
        result = assign_backtracking(easy_taskset)
        assert result.succeeded
        assert analyze(result.apply_to(easy_taskset)).stable

    def test_priorities_are_a_permutation(self, easy_taskset):
        result = assign_backtracking(easy_taskset)
        assert sorted(result.priorities.values()) == [1, 2, 3]

    def test_finds_the_unique_order(self, rm_only_taskset):
        result = assign_backtracking(rm_only_taskset)
        assert result.succeeded
        assert result.priorities["fast"] > result.priorities["slow"]

    def test_reports_infeasible(self, infeasible_taskset):
        result = assign_backtracking(infeasible_taskset)
        assert result.priorities is None
        assert not result.succeeded
        # Both tasks fail at the lowest level: two evaluations, no commit.
        assert result.evaluations == 2

    def test_no_backtracking_on_easy_instances(self, easy_taskset):
        result = assign_backtracking(easy_taskset)
        assert result.backtracks == 0
        # n + (n-1) + ... + 1 evaluations when the first choice always works.
        n = len(easy_taskset)
        assert result.evaluations == n * (n + 1) // 2

    def test_solves_generated_benchmark(self, benchmark_taskset):
        result = assign_backtracking(benchmark_taskset)
        if result.priorities is not None:
            assert analyze(result.apply_to(benchmark_taskset)).stable

    def test_does_not_mutate_input(self, easy_taskset):
        assign_backtracking(easy_taskset)
        assert all(t.priority is None for t in easy_taskset)

    def test_evaluation_budget_respected(self, infeasible_taskset):
        result = assign_backtracking(infeasible_taskset, max_evaluations=1)
        assert result.priorities is None
        assert result.evaluations <= 3  # one level's worth at most

    @pytest.mark.slow
    def test_agrees_with_exhaustive_on_feasibility(self):
        """Backtracking is complete: it finds a solution iff one exists."""
        import numpy as np

        from repro.assignment.exhaustive import assign_exhaustive
        from repro.benchgen.taskgen import BenchmarkConfig, generate_control_taskset

        config = BenchmarkConfig(utilization_range=(0.5, 0.9))
        for index in range(30):
            rng = np.random.default_rng([7331, 4, index])
            taskset = generate_control_taskset(4, rng, config=config)
            ours = assign_backtracking(taskset)
            truth = assign_exhaustive(taskset)
            assert (ours.priorities is None) == (truth.priorities is None)
            if ours.priorities is not None:
                assert analyze(ours.apply_to(taskset)).stable
