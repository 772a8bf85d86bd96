"""Tests of the fixed-priority preemptive scheduler simulator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.rta.taskset import Task, TaskSet
from repro.sim.fpps import simulate_fpps
from repro.sim.workload import (
    BestCaseExecution,
    BurstyExecution,
    OverloadWindow,
    UniformExecution,
    WorstCaseExecution,
    per_task_execution,
)
from tests.sim._scan_fpps import ReferenceUniformExecution
from tests.sim._scan_fpps import simulate_fpps as scan_simulate_fpps


class TestBasicScheduling:
    def test_single_task_runs_periodically(self):
        ts = TaskSet([Task(name="t", period=2.0, wcet=0.5, priority=1)])
        trace = simulate_fpps(ts, 10.0)
        jobs = trace.completed_jobs_of("t")
        assert len(jobs) == 5
        for k, job in enumerate(jobs):
            assert job.release == pytest.approx(2.0 * k)
            assert job.finish == pytest.approx(2.0 * k + 0.5)

    def test_preemption(self, three_task_set):
        trace = simulate_fpps(three_task_set, 16.0)
        # At t=0 all release; 'hi' runs first, 'me' second, 'lo' last.
        first_lo = trace.completed_jobs_of("lo")[0]
        assert first_lo.start >= 3.0 - 1e-9  # hi (1) + me (2) run first
        # lo is preempted by hi's release at t=4: finish after 4.
        assert first_lo.finish == pytest.approx(7.0)

    def test_synchronous_release_matches_critical_instant(self, three_task_set):
        trace = simulate_fpps(three_task_set, 32.0, execution_model=WorstCaseExecution())
        assert trace.completed_jobs_of("lo")[0].response_time == pytest.approx(7.0)

    def test_offsets_shift_releases(self):
        ts = TaskSet([Task(name="t", period=2.0, wcet=0.5, priority=1)])
        trace = simulate_fpps(ts, 6.0, offsets={"t": 1.0})
        releases = [j.release for j in trace.jobs_of("t")]
        assert releases == pytest.approx([1.0, 3.0, 5.0])

    def test_processor_never_oversubscribed(self, three_task_set):
        trace = simulate_fpps(three_task_set, 48.0)
        assert trace.busy_time() <= 48.0 + 1e-9

    def test_unfinished_jobs_reported(self):
        # Utilisation 1.0 with synchronous release: the low task never
        # completes within its window but the simulator keeps going.
        ts = TaskSet(
            [
                Task(name="hog", period=1.0, wcet=0.8, priority=2),
                Task(name="bg", period=5.0, wcet=1.5, priority=1),
            ]
        )
        trace = simulate_fpps(ts, 10.0)
        bg_jobs = trace.jobs_of("bg")
        # Releases at 0, 5, and the boundary release at exactly t = 10.
        assert len(bg_jobs) == 3
        assert len(trace.completed_jobs_of("bg")) == 1
        assert trace.deadline_misses("bg", 5.0) >= 2

    def test_rejects_undistinct_priorities(self):
        ts = TaskSet(
            [
                Task(name="a", period=1.0, wcet=0.1, priority=1),
                Task(name="b", period=1.0, wcet=0.1, priority=1),
            ]
        )
        with pytest.raises(ModelError):
            simulate_fpps(ts, 1.0)

    def test_rejects_nonpositive_duration(self, three_task_set):
        with pytest.raises(ModelError):
            simulate_fpps(three_task_set, 0.0)


class TestExecutionModels:
    def test_best_case_model_runs_faster(self, three_task_set):
        worst = simulate_fpps(three_task_set, 32.0, execution_model=WorstCaseExecution())
        best = simulate_fpps(three_task_set, 32.0, execution_model=BestCaseExecution())
        assert best.busy_time() < worst.busy_time()

    def test_deterministic_given_seed(self, three_task_set):
        t1 = simulate_fpps(three_task_set, 32.0, execution_model=UniformExecution(), seed=5)
        t2 = simulate_fpps(three_task_set, 32.0, execution_model=UniformExecution(), seed=5)
        assert [j.finish for j in t1.records] == [j.finish for j in t2.records]


# -- the scan-based reference as an oracle ------------------------------------


def _near(values):
    """The values, each also nudged by less than the scheduler's _TIME_EPS."""
    return st.sampled_from(
        [v + d for v in values for d in (0.0, 1e-13, -1e-13, 5e-13)]
    )


def _execution_models(names):
    """``(shipped, reference)`` twins of one execution-model tree.

    They differ only in their uniform draws: the reference side keeps
    ``rng.uniform``, so the oracle also sees a change to the draw.
    """
    same = st.one_of(
        st.just(WorstCaseExecution()),
        st.just(BestCaseExecution()),
        st.builds(
            BurstyExecution,
            burst_every=st.integers(1, 4),
            phase=st.integers(0, 3),
        ),
    ).map(lambda model: (model, model))
    base = same | st.just((UniformExecution(), ReferenceUniformExecution()))
    overload = st.tuples(
        base,
        st.sampled_from(names),
        st.floats(0.5, 3.0),
        st.integers(0, 3),
        st.integers(1, 3),
    ).map(
        lambda drawn: tuple(
            OverloadWindow(side, *drawn[1:]) for side in drawn[0]
        )
    )
    per_task = st.tuples(
        st.dictionaries(st.sampled_from(names), base, max_size=len(names)),
        base,
    ).map(
        lambda drawn: tuple(
            per_task_execution(
                {name: pair[side] for name, pair in drawn[0].items()},
                default=drawn[1][side],
            )
            for side in (0, 1)
        )
    )
    return st.one_of(base, overload, per_task)


@st.composite
def _scheduling_problems(draw):
    n = draw(st.integers(1, 6))
    names = [f"t{k}" for k in range(n)]
    priorities = draw(st.permutations(range(1, n + 1)))
    tasks = []
    for name, priority in zip(names, priorities):
        period = draw(_near([0.5, 1.0, 1.5, 2.0, 2.5]))
        # Shares up to 0.6 each: six tasks reach utilisation 3.6.
        wcet = draw(st.floats(0.02, 0.6)) * period
        bcet = wcet * draw(st.floats(0.1, 1.0))
        tasks.append(
            Task(name=name, period=period, wcet=wcet, bcet=bcet, priority=priority)
        )
    offsets = draw(
        st.none()
        | st.dictionaries(
            st.sampled_from(names),
            _near([-0.6, 0.0, 0.25, 0.5, 1.0]),
        )
    )
    # Horizons off and on period multiples cut jobs short mid-execution.
    duration = draw(st.floats(0.2, 8.0) | _near([1.0, 2.0, 5.0]))
    return (
        TaskSet(tasks),
        duration,
        draw(_execution_models(names)),
        offsets,
        draw(st.integers(0, 2**16)),
    )


def _fields(trace):
    return [
        (r.task_name, r.job_index, r.release, r.execution_time, r.start, r.finish)
        for r in trace.records
    ]


class TestAgainstScanReference:
    @settings(max_examples=300)
    @given(_scheduling_problems())
    def test_traces_match_record_for_record(self, problem):
        taskset, duration, (model, reference_model), offsets, seed = problem
        kwargs = dict(offsets=offsets, seed=seed)
        got = simulate_fpps(taskset, duration, execution_model=model, **kwargs)
        want = scan_simulate_fpps(
            taskset, duration, execution_model=reference_model, **kwargs
        )
        assert got.duration == want.duration
        assert _fields(got) == _fields(want)
