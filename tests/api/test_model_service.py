"""Behavioural tests of the façade's model and service layers."""

from __future__ import annotations

import pickle

import pytest

from repro.api import (
    PRIORITY_POLICIES,
    ControlTaskSystem,
    analyze,
    task_verdict,
    verdict_from_times,
)
from repro.errors import ModelError, ScheduleError
from repro.jittermargin.linearbound import LinearStabilityBound
from repro.rta.interface import ResponseTimes
from repro.rta.taskset import Task, TaskSet


def _taskset(priorities=True) -> TaskSet:
    return TaskSet(
        [
            Task(
                "a",
                period=0.01,
                wcet=0.002,
                bcet=0.001,
                priority=2 if priorities else None,
                stability=LinearStabilityBound(a=1.2, b=0.008),
            ),
            Task(
                "b",
                period=0.02,
                wcet=0.005,
                bcet=0.002,
                priority=1 if priorities else None,
                stability=LinearStabilityBound(a=1.1, b=0.015),
            ),
        ]
    )


class TestControlTaskSystem:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ModelError, match="unknown priority policy"):
            ControlTaskSystem(taskset=_taskset(), priority_policy="magic")

    def test_as_given_requires_assigned_priorities(self):
        system = ControlTaskSystem(taskset=_taskset(priorities=False))
        with pytest.raises(ModelError, match="unassigned"):
            system.resolved_taskset()

    def test_policy_assigns_priorities(self):
        system = ControlTaskSystem(
            taskset=_taskset(priorities=False),
            priority_policy="backtracking",
        )
        resolved = system.resolved_taskset()
        resolved.check_distinct_priorities()
        assert analyze(system).stable

    def test_infeasible_policy_raises_schedule_error(self):
        # Two tasks whose combined demand cannot both meet deadlines.
        tasks = TaskSet(
            [
                Task("x", period=1.0, wcet=0.9, bcet=0.9),
                Task("y", period=1.0, wcet=0.9, bcet=0.9),
            ]
        )
        system = ControlTaskSystem(
            taskset=tasks, priority_policy="backtracking"
        )
        with pytest.raises(ScheduleError, match="no priority assignment"):
            system.resolved_taskset()

    def test_resolution_and_report_are_memoised(self):
        system = ControlTaskSystem(taskset=_taskset())
        assert system.resolved_taskset() is system.resolved_taskset()
        assert analyze(system) is analyze(system)

    def test_pickle_drops_memo_caches(self):
        """Sweep fingerprints must not depend on prior analyze() calls."""
        system = ControlTaskSystem(taskset=_taskset())
        cold = pickle.dumps(system)
        analyze(system)  # populate the memo caches
        warm = pickle.dumps(system)
        assert cold == warm

    def test_dict_round_trip(self):
        system = ControlTaskSystem(taskset=_taskset(), name="rt")
        clone = ControlTaskSystem.from_dict(system.to_dict())
        assert clone.name == "rt"
        assert analyze(clone).canonical_json() == analyze(system).canonical_json()

    def test_from_dict_rejects_empty_tasks(self):
        with pytest.raises(ModelError, match="non-empty 'tasks'"):
            ControlTaskSystem.from_dict({"name": "x", "tasks": []})

    def test_plant_binding_derives_stability_bound(self):
        system = ControlTaskSystem(
            taskset=TaskSet(
                [
                    Task(
                        "servo",
                        period=0.006,
                        wcet=0.001,
                        bcet=0.0005,
                        priority=1,
                        plant_name="dc_servo",
                    )
                ]
            )
        )
        resolved = system.resolved_taskset()
        bound = resolved.by_name("servo").stability
        assert bound is not None
        assert bound.a >= 1.0 and bound.b > 0.0
        verdict = analyze(system).task("servo")
        assert verdict.bound is not None

    def test_policy_registry_covers_all_assigners(self):
        assert {
            "as_given",
            "rate_monotonic",
            "slack_monotonic",
            "audsley",
            "backtracking",
            "unsafe_quadratic",
            "exhaustive",
        } == set(PRIORITY_POLICIES)

    def test_policy_registry_matches_search_strategies(self):
        from repro.search import strategy_names

        assert set(PRIORITY_POLICIES) == {"as_given", *strategy_names()}

    @pytest.mark.parametrize("policy", ["as_given", "rate_monotonic"])
    def test_memo_free_analyses_check_priorities_once(
        self, policy, monkeypatch
    ):
        # ``resolved_taskset`` checks each model it resolves; the
        # population core behind a memo-free ``analyze`` and the serial
        # ``analyze_batch`` path must not check it again.
        from repro.api.service import _analyze_inline_population

        check = TaskSet.check_distinct_priorities
        calls = []

        def counted(self):
            calls.append(self)
            return check(self)

        monkeypatch.setattr(TaskSet, "check_distinct_priorities", counted)

        def system():
            return ControlTaskSystem(taskset=_taskset(), priority_policy=policy)

        analyze(system())
        assert len(calls) == 1
        calls.clear()
        _analyze_inline_population([system(), system(), system()])
        assert len(calls) == 3


class TestVerdicts:
    def test_verdict_without_bound_has_no_slack(self):
        task = Task("plain", period=1.0, wcet=0.1, bcet=0.1, priority=1)
        verdict = task_verdict(task, ())
        assert verdict.slack is None
        assert verdict.rel_slack is None
        assert verdict.stable and verdict.ok

    def test_bounded_deadline_miss_has_neg_inf_slack(self):
        task = Task(
            "tight",
            period=1.0,
            wcet=0.5,
            bcet=0.5,
            priority=1,
            stability=LinearStabilityBound(a=1.0, b=0.9),
        )
        interferer = Task("hog", period=1.0, wcet=0.7, bcet=0.7, priority=2)
        verdict = task_verdict(task, (interferer,))
        assert not verdict.deadline_met
        assert verdict.slack == float("-inf")
        assert not verdict.ok

    def test_unprioritised_task_keeps_null_priority(self):
        from repro.api import TaskVerdict

        task = Task(
            "alone",
            period=0.1,
            wcet=0.01,
            bcet=0.01,
            stability=LinearStabilityBound(a=1.0, b=0.05),
        )
        verdict = verdict_from_times(task, ResponseTimes(best=0.02, worst=0.04))
        assert verdict.priority is None
        payload = verdict.to_dict()
        assert payload["priority"] is None
        assert TaskVerdict.from_dict(payload).priority is None

    def test_verdict_from_times_judges_external_interfaces(self):
        task = Task(
            "served",
            period=0.1,
            wcet=0.01,
            bcet=0.01,
            stability=LinearStabilityBound(a=1.0, b=0.05),
        )
        ok = verdict_from_times(task, ResponseTimes(best=0.02, worst=0.04))
        bad = verdict_from_times(task, ResponseTimes(best=0.02, worst=0.08))
        assert ok.ok and ok.slack == pytest.approx(0.01)
        assert not bad.stable and bad.slack == pytest.approx(-0.03)
