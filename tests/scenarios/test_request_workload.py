"""Tests of the scenario-drawn request streams feeding the serve layer."""

from __future__ import annotations

import threading

import pytest

from repro.api import analyze
from repro.errors import ModelError
from repro.scenarios import drifting_request_stream, scenario_request_pool

pytestmark = pytest.mark.scenario


class TestPool:
    def test_pool_is_deterministic(self):
        a = scenario_request_pool(unique=8, seed=7)
        b = scenario_request_pool(unique=8, seed=7)
        assert [s.canonical_sha256() for s in a] == [
            s.canonical_sha256() for s in b
        ]

    def test_pool_members_are_distinct_and_analysable(self):
        pool = scenario_request_pool(unique=8, seed=7)
        shas = [s.canonical_sha256() for s in pool]
        assert len(set(shas)) == len(pool)
        report = analyze(pool[0])
        assert report.n_tasks >= 1

    def test_pool_mixes_scenarios(self):
        pool = scenario_request_pool(unique=8, seed=7)
        sources = {system.name.rsplit("-", 1)[0] for system in pool}
        assert len(sources) > 1

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ModelError, match="unknown scenario"):
            scenario_request_pool(unique=4, scenarios=["no_such_scenario"])

    def test_bad_sizes_rejected(self):
        with pytest.raises(ModelError, match="unique"):
            scenario_request_pool(unique=0)

    def test_models_round_trip_through_the_schema(self):
        # The benchmark ships these over HTTP as JSON model dicts; the
        # dict form must rebuild into an identically-hashed system.
        from repro.api import ControlTaskSystem

        for system in scenario_request_pool(unique=6, seed=7):
            rebuilt = ControlTaskSystem.from_dict(system.to_dict())
            assert rebuilt.canonical_sha256() == system.canonical_sha256()


class TestDriftStream:
    def test_stream_is_deterministic(self):
        a = drifting_request_stream(10, n_tasks=4, seed=23)
        b = drifting_request_stream(10, n_tasks=4, seed=23)
        assert [s.canonical_sha256() for s in a] == [
            s.canonical_sha256() for s in b
        ]

    def test_all_requests_distinct_and_stable(self):
        stream = drifting_request_stream(8, n_tasks=4, seed=23)
        shas = {s.canonical_sha256() for s in stream}
        assert len(shas) == 8
        for system in stream:
            assert analyze(system).stable is True

    def test_min_rel_slack_decays_monotonically(self):
        stream = drifting_request_stream(8, n_tasks=4, seed=23)
        slacks = [
            min(t["rel_slack"] for t in analyze(s).to_dict()["tasks"])
            for s in stream
        ]
        assert slacks[0] > slacks[-1]
        assert all(a >= b - 1e-12 for a, b in zip(slacks, slacks[1:]))

    def test_validation(self):
        with pytest.raises(ModelError, match="requests"):
            drifting_request_stream(1)
        with pytest.raises(ModelError, match="inflation"):
            drifting_request_stream(4, inflation=1.0)
        with pytest.raises(ModelError, match="final_margin"):
            drifting_request_stream(4, final_margin=0.9)


class TestConcurrentConsumption:
    """Draw determinism when many threads draw and analyse at once.

    The daemon tests fan one pool out over client threads; the
    guarantee they rely on is that concurrent generation (same seed)
    and concurrent analysis of shared models never perturb the models
    or the per-seed draw order.
    """

    def _collect(self, build, n_threads=6):
        results = [None] * n_threads
        errors = []

        def work(slot):
            try:
                results[slot] = build()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(slot,))
            for slot in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        return results

    def test_concurrent_generation_is_seed_deterministic(self):
        def build():
            return [
                s.canonical_sha256()
                for s in scenario_request_pool(unique=4, seed=7)
            ]

        results = self._collect(build)
        assert all(r == results[0] for r in results)

    def test_concurrent_drift_generation_is_seed_deterministic(self):
        def build():
            return [
                s.canonical_sha256()
                for s in drifting_request_stream(6, n_tasks=4, seed=23)
            ]

        results = self._collect(build)
        assert all(r == results[0] for r in results)

    def test_shared_stream_survives_concurrent_analysis(self):
        stream = scenario_request_pool(unique=4, seed=7)
        before = [s.canonical_sha256() for s in stream]

        def consume():
            return [analyze(s).report_json() for s in stream]

        results = self._collect(consume, n_threads=4)
        # Every consumer saw byte-identical reports...
        assert all(r == results[0] for r in results)
        # ...and analysis did not mutate the shared models.
        assert [s.canonical_sha256() for s in stream] == before


class TestUndrawablePool:
    def test_unassignable_scenarios_error_instead_of_spinning(self):
        from repro.jittermargin.linearbound import LinearStabilityBound
        from repro.rta.taskset import Task, TaskSet
        from repro.scenarios import ScenarioSpec, register
        from repro.scenarios.registry import _REGISTRY
        from repro.scenarios.spec import FixedSource

        # A fixture no policy can schedule: utilisation > 1.
        infeasible = TaskSet(
            [
                Task("a", period=1.0, wcet=0.9, bcet=0.9,
                     stability=LinearStabilityBound(a=1.0, b=0.5)),
                Task("b", period=1.0, wcet=0.9, bcet=0.9),
            ]
        )
        name = "_test_undrawable_pool"
        register(
            ScenarioSpec(
                name=name,
                description="test-only: never assignable",
                source=FixedSource(factory=lambda: (infeasible, "a")),
                policy="backtracking",
            )
        )
        try:
            with pytest.raises(ModelError, match="attempts"):
                scenario_request_pool(unique=2, scenarios=[name])
        finally:
            del _REGISTRY[name]
