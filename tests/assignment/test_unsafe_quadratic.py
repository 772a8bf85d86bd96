"""Tests of the Unsafe Quadratic baseline."""

from __future__ import annotations

import pytest

from repro.api import analyze
from repro.assignment.unsafe_quadratic import assign_unsafe_quadratic


class TestUnsafeQuadratic:
    def test_solves_easy_instance(self, easy_taskset):
        result = assign_unsafe_quadratic(easy_taskset)
        assert result.claims_valid
        assert analyze(result.apply_to(easy_taskset)).stable

    def test_always_commits_to_a_complete_order(self, infeasible_taskset):
        # The defining behaviour: even on infeasible instances it outputs
        # a full (invalid) assignment -- unlike Audsley or backtracking.
        result = assign_unsafe_quadratic(infeasible_taskset)
        assert result.priorities is not None
        assert sorted(result.priorities.values()) == [1, 2]
        assert not result.claims_valid
        assert not analyze(result.apply_to(infeasible_taskset)).stable

    def test_exactly_quadratic_evaluations(self, easy_taskset):
        result = assign_unsafe_quadratic(easy_taskset)
        n = len(easy_taskset)
        assert result.evaluations == n * (n + 1) // 2

    def test_never_backtracks(self, easy_taskset):
        assert assign_unsafe_quadratic(easy_taskset).backtracks == 0

    def test_respects_forced_order(self, rm_only_taskset):
        result = assign_unsafe_quadratic(rm_only_taskset)
        assert result.priorities["fast"] > result.priorities["slow"]
        assert analyze(result.apply_to(rm_only_taskset)).stable

    def test_does_not_mutate_input(self, easy_taskset):
        assign_unsafe_quadratic(easy_taskset)
        assert all(t.priority is None for t in easy_taskset)

    def test_agreement_with_backtracking_when_monotone(self, benchmark_taskset):
        """On anomaly-free instances both algorithms succeed (they may pick
        different orders; validity is what matters)."""
        from repro.assignment.backtracking import assign_backtracking

        uq = assign_unsafe_quadratic(benchmark_taskset)
        bt = assign_backtracking(benchmark_taskset)
        if bt.succeeded and bt.backtracks == 0:
            assert analyze(uq.apply_to(benchmark_taskset)).stable
