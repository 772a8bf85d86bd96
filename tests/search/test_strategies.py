"""Engine-level behaviour of the strategy suite."""

from __future__ import annotations

import pytest

from _population import random_taskset
from repro.api import analyze, assign
from repro.errors import ModelError
from repro.rta.taskset import Task, TaskSet
from repro.memo import AnalysisMemo
from repro.search import STRATEGIES, run_strategy, strategy_names


class TestRegistry:
    def test_all_algorithms_registered(self):
        assert strategy_names() == (
            "audsley",
            "backtracking",
            "exhaustive",
            "rate_monotonic",
            "slack_monotonic",
            "unsafe_quadratic",
        )

    def test_result_algorithm_matches_registry_key(self, easy_taskset):
        for name in strategy_names():
            assert run_strategy(name, easy_taskset).algorithm == name


class TestEngineBehaviour:
    def test_input_taskset_never_mutated(self, easy_taskset):
        context = AnalysisMemo()
        for name in strategy_names():
            run_strategy(name, easy_taskset, context=context)
        assert all(t.priority is None for t in easy_taskset)

    def test_infeasible_instance_outcomes(self, infeasible_taskset):
        audsley = run_strategy("audsley", infeasible_taskset)
        assert audsley.priorities is None and audsley.evaluations == 2
        backtracking = run_strategy("backtracking", infeasible_taskset)
        assert backtracking.priorities is None
        unsafe = run_strategy("unsafe_quadratic", infeasible_taskset)
        assert unsafe.priorities is not None and unsafe.claims_valid is False
        exhaustive = run_strategy("exhaustive", infeasible_taskset)
        assert exhaustive.priorities is None

    def test_exhaustive_size_guard(self):
        tasks = [
            Task(name=f"t{i}", period=float(10 + i), wcet=0.1)
            for i in range(10)
        ]
        with pytest.raises(ModelError):
            run_strategy("exhaustive", TaskSet(tasks))

    def test_backtracking_budget(self, infeasible_taskset):
        result = run_strategy(
            "backtracking", infeasible_taskset, max_evaluations=1
        )
        assert result.priorities is None
        assert result.evaluations <= 3

    def test_succeeded_and_recomputations_properties(self, easy_taskset):
        context = AnalysisMemo()
        first = run_strategy("backtracking", easy_taskset, context=context)
        second = run_strategy("backtracking", easy_taskset, context=context)
        assert first.succeeded and second.succeeded
        assert first.priorities == second.priorities
        assert second.cache_hits == second.evaluations
        assert second.recomputations == 0
        assert first.recomputations == first.evaluations

    def test_assignments_validate_through_facade(self):
        for n, index in ((4, 0), (5, 1), (6, 2)):
            taskset = random_taskset(n, index)
            context = AnalysisMemo()
            for name in ("audsley", "backtracking"):
                result = run_strategy(name, taskset, context=context)
                if result.priorities is not None:
                    assert analyze(result.apply_to(taskset)).stable


class TestApiAssign:
    def test_assign_defaults_to_backtracking(self, easy_taskset):
        outcome = assign(easy_taskset, name="demo")
        assert outcome.algorithm == "backtracking"
        assert outcome.ok and outcome.report.stable
        assert outcome.system.priority_policy == "as_given"

    def test_assign_respects_system_policy(self, easy_taskset):
        from repro.api import ControlTaskSystem

        system = ControlTaskSystem(
            taskset=easy_taskset, name="s", priority_policy="audsley"
        )
        outcome = assign(system)
        assert outcome.algorithm == "audsley"
        assert system.assign().algorithm == "audsley"  # method front end

    def test_assign_failure_carries_no_report(self, infeasible_taskset):
        outcome = assign(infeasible_taskset, algorithm="backtracking")
        assert not outcome.assigned and not outcome.ok
        assert outcome.report is None and outcome.system is None
        payload = outcome.to_dict()
        assert payload["assigned"] is False and payload["report"] is None

    def test_assign_batch_matches_serial_and_parallel(self):
        from repro.api import assign_batch

        tasksets = [random_taskset(4, i) for i in range(3)]
        serial = assign_batch(tasksets, algorithm="backtracking", jobs=1)
        parallel = assign_batch(tasksets, algorithm="backtracking", jobs=2)
        assert [o.to_dict() for o in serial] == [
            o.to_dict() for o in parallel
        ]

    def test_unknown_algorithm_rejected(self, easy_taskset):
        with pytest.raises(ModelError):
            assign(easy_taskset, algorithm="quantum")

    def test_strategy_singletons_are_stateless_across_runs(self):
        taskset = random_taskset(5, 9)
        first = run_strategy("backtracking", taskset)
        second = run_strategy("backtracking", taskset)
        assert first.priorities == second.priorities
        assert first.evaluations == second.evaluations
        assert STRATEGIES["backtracking"].name == "backtracking"
