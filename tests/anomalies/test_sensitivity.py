"""Tests of the sensitivity analysis (level profiles) and of the
non-monotone demand scaling that rules out a bisection on it."""

from __future__ import annotations

import pytest

from repro.anomalies.scenarios import priority_raise_anomaly_example
from repro.anomalies.sensitivity import priority_level_margin
from repro.api import analyze
from repro.jittermargin.linearbound import LinearStabilityBound
from repro.rta.taskset import Task, TaskSet


@pytest.fixture
def working_set():
    return TaskSet(
        [
            Task(name="hi", period=4.0, wcet=1.0, bcet=0.5, priority=2,
                 stability=LinearStabilityBound(a=1.0, b=2.5)),
            Task(name="lo", period=12.0, wcet=2.0, bcet=1.0, priority=1,
                 stability=LinearStabilityBound(a=1.0, b=9.0)),
        ]
    )


class TestPriorityLevelProfile:
    def test_profile_shape(self, working_set):
        profile = priority_level_margin(working_set, "lo")
        assert profile.levels == (1, 2)
        assert len(profile.slacks) == 2

    def test_monotone_for_plain_sets(self, working_set):
        # Both tasks have constant-ish interfaces here: higher level never
        # hurts, so the profile is monotone.
        profile = priority_level_margin(working_set, "lo")
        assert profile.is_monotone

    def test_anomalous_instance_is_non_monotone(self):
        """On the pinned anomaly instance the slack profile of the control
        task DECREASES when moving up a level -- bisection over levels
        would be unsound, which is the paper's design-complexity point."""
        taskset, victim = priority_raise_anomaly_example()
        profile = priority_level_margin(taskset, victim)
        assert not profile.is_monotone
        # Level 1 (current, stable) beats level 2 (the 'improvement').
        assert profile.slacks[0] > profile.slacks[1]

    def test_best_level_maximises_slack(self, working_set):
        profile = priority_level_margin(working_set, "hi")
        best_index = profile.levels.index(profile.best_level)
        assert profile.slacks[best_index] == max(profile.slacks)


def _scaled_pair(factor: float) -> TaskSet:
    """Two-task set with ``hp``'s WCET and BCET scaled by ``factor``."""
    return TaskSet(
        [
            Task(name="hp", period=1.2465, wcet=0.1681 * factor,
                 bcet=0.1349 * factor, priority=2),
            Task(name="lo", period=9.579, wcet=1.7544, bcet=0.9491, priority=1,
                 stability=LinearStabilityBound(a=5.014, b=10.5117)),
        ]
    )


class TestDemandScalingIsNotMonotone:
    """Growing one task's demand can break a design and then repair it.

    At 2.2, ``lo``'s worst-case response has crossed ``2 * T_hp``; by
    2.21 its best-case response has jumped from 0.949 to 1.247, which
    lowers ``L + aJ = a R^w - (a - 1) R^b``.  A bisection on the factor
    returned 2.78 on this set, stepping over the invalid window.
    """

    @pytest.mark.parametrize(
        "factor, stable, slack",
        [(2.19, True, 1.833), (2.2, False, -0.038), (2.21, True, 1.133)],
    )
    def test_validity_at_factor(self, factor, stable, slack):
        report = analyze(_scaled_pair(factor))
        assert report.stable is stable
        assert report.violating == (() if stable else ("lo",))
        assert report.task("lo").slack == pytest.approx(slack, abs=5e-4)
