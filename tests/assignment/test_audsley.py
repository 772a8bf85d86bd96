"""Tests of the classic Audsley OPA reference implementation."""

from __future__ import annotations

from repro.api import analyze
from repro.assignment.audsley import assign_audsley


class TestAudsley:
    def test_solves_easy_instance(self, easy_taskset):
        result = assign_audsley(easy_taskset)
        assert result.succeeded
        assert analyze(result.apply_to(easy_taskset)).stable

    def test_fails_cleanly_on_infeasible(self, infeasible_taskset):
        result = assign_audsley(infeasible_taskset)
        assert result.priorities is None
        assert not result.claims_valid

    def test_never_emits_invalid_assignments(self, benchmark_taskset):
        # Sound by construction: success implies validity.
        result = assign_audsley(benchmark_taskset)
        if result.priorities is not None:
            assert analyze(result.apply_to(benchmark_taskset)).stable

    def test_quadratic_evaluations_on_success(self, easy_taskset):
        result = assign_audsley(easy_taskset)
        n = len(easy_taskset)
        assert result.evaluations == n * (n + 1) // 2

    def test_finds_forced_order(self, rm_only_taskset):
        result = assign_audsley(rm_only_taskset)
        assert result.succeeded
        assert result.priorities["fast"] > result.priorities["slow"]
