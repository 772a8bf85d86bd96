"""Tests of the brute-force ground-truth assigner."""

from __future__ import annotations

import pytest

from repro.api import analyze
from repro.assignment.exhaustive import assign_exhaustive, count_valid_orders
from repro.errors import ModelError
from repro.rta.taskset import Task, TaskSet


class TestExhaustive:
    def test_finds_valid_order(self, easy_taskset):
        result = assign_exhaustive(easy_taskset)
        assert result.succeeded
        assert analyze(result.apply_to(easy_taskset)).stable

    def test_detects_infeasibility(self, infeasible_taskset):
        result = assign_exhaustive(infeasible_taskset)
        assert result.priorities is None

    def test_refuses_large_sets(self):
        tasks = [
            Task(name=f"t{i}", period=float(10 + i), wcet=0.1) for i in range(10)
        ]
        with pytest.raises(ModelError):
            assign_exhaustive(TaskSet(tasks))

    def test_count_valid_orders_easy_set_all_valid(self, easy_taskset):
        # Generous bounds: every permutation schedulable & stable.
        assert count_valid_orders(easy_taskset) == 6

    def test_count_valid_orders_forced(self, rm_only_taskset):
        assert count_valid_orders(rm_only_taskset) == 1

    def test_count_valid_orders_infeasible(self, infeasible_taskset):
        assert count_valid_orders(infeasible_taskset) == 0
