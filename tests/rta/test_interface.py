"""Tests of the latency/jitter interface (eq. (2)) and validity checks."""

from __future__ import annotations

import pytest

from repro.jittermargin.linearbound import LinearStabilityBound
from repro.rta.interface import (
    latency_jitter,
    response_time_interface,
    task_is_stable,
)
from repro.rta.popbatch import analyze_taskset
from repro.rta.taskset import Task, TaskSet


class TestLatencyJitter:
    def test_definitions_match_eq2(self, three_task_set):
        lo = three_task_set.by_name("lo")
        times = latency_jitter(lo, three_task_set.higher_priority(lo))
        assert times.latency == pytest.approx(times.best)
        assert times.jitter == pytest.approx(times.worst - times.best)

    def test_highest_priority_task_has_pure_execution_interface(self, three_task_set):
        hi = three_task_set.by_name("hi")
        times = latency_jitter(hi, three_task_set.higher_priority(hi))
        assert times.best == pytest.approx(hi.bcet)
        assert times.worst == pytest.approx(hi.wcet)
        assert times.jitter == pytest.approx(hi.wcet - hi.bcet)

    def test_deadline_limit_defaults_to_period(self):
        hi = Task(name="hi", period=2.0, wcet=1.5)
        lo = Task(name="lo", period=10.0, wcet=4.0)
        times = latency_jitter(lo, [hi])
        assert times.worst == float("inf")
        assert not times.finite

    def test_custom_deadline(self):
        hi = Task(name="hi", period=2.0, wcet=1.5)
        lo = Task(name="lo", period=10.0, wcet=4.0)
        times = latency_jitter(lo, [hi], deadline=100.0)
        assert times.finite


class TestInterfaceOverTaskSet:
    def test_all_tasks_reported(self, three_task_set):
        interface = response_time_interface(three_task_set)
        assert set(interface) == {"hi", "me", "lo"}

    def test_schedulable_verdict(self, three_task_set):
        assert analyze_taskset(three_task_set).deadlines_met

    def test_unschedulable_set_detected(self):
        ts = TaskSet(
            [
                Task(name="a", period=2.0, wcet=1.6, priority=2),
                Task(name="b", period=4.0, wcet=1.0, priority=1),
            ]
        )
        assert not analyze_taskset(ts).deadlines_met


class TestStabilityChecks:
    def test_task_without_bound_only_needs_deadline(self):
        task = Task(name="t", period=5.0, wcet=1.0)
        assert task_is_stable(task, [])

    def test_stability_bound_checked_against_interface(self):
        hi = Task(name="hi", period=4.0, wcet=1.0, bcet=0.5)
        # Interface of ctl: R^b = 2 (no best-case preemption), R^w = 3
        # -> L = 2, J = 1, so L + 2J = 4.
        ctl_ok = Task(
            name="ctl",
            period=10.0,
            wcet=2.0,
            bcet=2.0,
            stability=LinearStabilityBound(a=2.0, b=4.0),
        )
        assert task_is_stable(ctl_ok, [hi])
        ctl_bad = Task(
            name="ctl",
            period=10.0,
            wcet=2.0,
            bcet=2.0,
            stability=LinearStabilityBound(a=2.0, b=3.9),
        )
        assert not task_is_stable(ctl_bad, [hi])

    def test_deadline_miss_is_always_unstable(self):
        hi = Task(name="hi", period=2.0, wcet=1.9)
        ctl = Task(
            name="ctl",
            period=4.0,
            wcet=1.0,
            stability=LinearStabilityBound(a=1.0, b=1e9),
        )
        assert not task_is_stable(ctl, [hi])

    def test_stable_taskset_verdict(self):
        ts = TaskSet(
            [
                Task(name="hi", period=4.0, wcet=1.0, bcet=0.5, priority=2),
                Task(
                    name="ctl",
                    period=10.0,
                    wcet=2.0,
                    bcet=2.0,
                    priority=1,
                    stability=LinearStabilityBound(a=2.0, b=4.0),
                ),
            ]
        )
        assert analyze_taskset(ts).stable
