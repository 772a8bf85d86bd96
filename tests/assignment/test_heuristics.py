"""Tests of the single-pass ordering heuristics."""

from __future__ import annotations

from repro.api import analyze
from repro.assignment.heuristics import (
    assign_rate_monotonic,
    assign_slack_monotonic,
)


class TestRateMonotonic:
    def test_shorter_period_gets_higher_priority(self, easy_taskset):
        result = assign_rate_monotonic(easy_taskset)
        pri = result.priorities
        assert pri["a"] > pri["b"] > pri["c"]

    def test_claims_nothing(self, easy_taskset):
        result = assign_rate_monotonic(easy_taskset)
        assert result.claims_valid is None
        assert result.evaluations == 0

    def test_valid_on_generous_bounds(self, easy_taskset):
        result = assign_rate_monotonic(easy_taskset)
        assert analyze(result.apply_to(easy_taskset)).stable


class TestSlackMonotonic:
    def test_linear_number_of_evaluations(self, easy_taskset):
        result = assign_slack_monotonic(easy_taskset)
        assert result.evaluations == len(easy_taskset)

    def test_produces_complete_permutation(self, benchmark_taskset):
        result = assign_slack_monotonic(benchmark_taskset)
        assert sorted(result.priorities.values()) == list(
            range(1, len(benchmark_taskset) + 1)
        )

    def test_most_slack_gets_lowest_priority(self, rm_only_taskset):
        result = assign_slack_monotonic(rm_only_taskset)
        # 'slow' tolerates interference (b = 7), 'fast' does not (b = 1).
        assert result.priorities["fast"] > result.priorities["slow"]
