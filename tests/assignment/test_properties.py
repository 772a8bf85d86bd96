"""Property-based tests over the whole assignment layer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import analyze
from repro.assignment.audsley import assign_audsley
from repro.assignment.backtracking import assign_backtracking
from repro.assignment.exhaustive import assign_exhaustive
from repro.assignment.unsafe_quadratic import assign_unsafe_quadratic
from repro.jittermargin.linearbound import LinearStabilityBound
from repro.rta.taskset import Task, TaskSet


@st.composite
def constrained_task_sets(draw):
    n = draw(st.integers(2, 5))
    periods = draw(
        st.lists(
            st.sampled_from([2.0, 4.0, 5.0, 8.0, 10.0, 16.0]),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    total_u = draw(st.floats(0.3, 0.85))
    weights = [draw(st.floats(0.1, 1.0)) for _ in range(n)]
    scale = total_u / sum(weights)
    tasks = []
    for i, period in enumerate(sorted(periods)):
        wcet = max(weights[i] * scale * period, 1e-3)
        bcet = max(wcet * draw(st.floats(0.2, 1.0)), 5e-4)
        bound_b = period * draw(st.floats(0.3, 1.2))
        bound_a = draw(st.floats(1.0, 3.0))
        tasks.append(
            Task(
                name=f"t{i}",
                period=period,
                wcet=wcet,
                bcet=bcet,
                stability=LinearStabilityBound(a=bound_a, b=bound_b),
            )
        )
    return TaskSet(tasks)


@settings(max_examples=30)
@given(constrained_task_sets())
def test_backtracking_success_implies_validity(ts):
    result = assign_backtracking(ts)
    if result.priorities is not None:
        assert analyze(result.apply_to(ts)).stable


@settings(max_examples=30)
@given(constrained_task_sets())
def test_backtracking_matches_exhaustive_feasibility(ts):
    ours = assign_backtracking(ts)
    truth = assign_exhaustive(ts)
    assert (ours.priorities is None) == (truth.priorities is None)


@settings(max_examples=30)
@given(constrained_task_sets())
def test_audsley_success_implies_validity(ts):
    result = assign_audsley(ts)
    if result.priorities is not None:
        assert analyze(result.apply_to(ts)).stable


@settings(max_examples=30)
@given(constrained_task_sets())
def test_audsley_never_beats_backtracking(ts):
    # OPA without backtracking is incomplete: anything it solves,
    # Algorithm 1 also solves (the converse can fail under anomalies).
    audsley = assign_audsley(ts)
    if audsley.priorities is not None:
        assert assign_backtracking(ts).priorities is not None


@settings(max_examples=30)
@given(constrained_task_sets())
def test_unsafe_quadratic_always_commits(ts):
    result = assign_unsafe_quadratic(ts)
    assert result.priorities is not None
    assert sorted(result.priorities.values()) == list(range(1, len(ts) + 1))


@settings(max_examples=30)
@given(constrained_task_sets())
def test_unsafe_quadratic_belief_is_sound_positively(ts):
    # When UQ believes its output is valid, it is: every commit passed an
    # exact check with the exact final hp-set.
    result = assign_unsafe_quadratic(ts)
    if result.claims_valid:
        assert analyze(result.apply_to(ts)).stable
