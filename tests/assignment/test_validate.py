"""Validity of complete assignments: ``analyze(taskset).stable``."""

from __future__ import annotations

import pytest

from repro.api import analyze
from repro.errors import ModelError
from repro.jittermargin.linearbound import LinearStabilityBound
from repro.rta.taskset import Task, TaskSet


class TestValidateAssignment:
    def test_valid_assignment(self, easy_taskset):
        ts = easy_taskset.with_priorities({"a": 3, "b": 2, "c": 1})
        report = analyze(ts)
        assert report.stable
        assert report.violating == ()

    def test_detects_stability_violation(self, rm_only_taskset):
        # Inverted order: 'fast' at the bottom misses its deadline.
        ts = rm_only_taskset.with_priorities({"fast": 1, "slow": 2})
        report = analyze(ts)
        assert not report.stable
        assert "fast" in report.violating

    def test_per_task_detail(self, rm_only_taskset):
        ts = rm_only_taskset.with_priorities({"fast": 2, "slow": 1})
        report = analyze(ts)
        assert report.task("fast").deadline_met
        assert report.task("fast").stable
        assert report.task("slow").times.latency == pytest.approx(2.8)

    def test_requires_complete_priorities(self, easy_taskset):
        with pytest.raises(ModelError):
            analyze(easy_taskset)

    def test_task_without_bound_passes_on_deadline_alone(self):
        ts = TaskSet(
            [
                Task(name="plain", period=5.0, wcet=1.0, priority=2),
                Task(
                    name="ctl",
                    period=10.0,
                    wcet=1.0,
                    priority=1,
                    stability=LinearStabilityBound(a=1.0, b=100.0),
                ),
            ]
        )
        assert analyze(ts).stable
