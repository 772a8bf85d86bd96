"""The shipped anomaly detectors against the list-built reference.

``_list_detectors`` keeps the detectors of v5.0.0, which posed every
move as a ``(record, hp-list)`` problem; here the record kernel scores
those lists one problem at a time.  The shipped detectors build a
population's rows from per-set arrays and run the stacked fixed points
once, so they share no stacked code with the reference.  They must
report the same events, every float equal by ``float.hex``, and raise
the same error when the reference raises.

The draws cover one to twelve tasks, tasks with and without a stability
bound, harmonic decimal periods (float quotients such as ``0.3 / 0.1``
land within an ulp of an integer, inside the ceiling guard), total
utilisations past 1 (saturated hp sets, ``worst = inf``), interferers
whose WCET exceeds their stretched period, and drawn ``shrink`` and
``stretch`` factors.  Pooled calls add the paper's priority-raise
fixture under a drawn bound, so every pooled draw reports at least one
event with finite slacks.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anomalies.detectors import (
    all_anomalies,
    period_increase_anomalies,
    population_anomalies,
    priority_raise_anomalies,
    wcet_decrease_anomalies,
)
from repro.anomalies.scenarios import priority_raise_anomaly_example
from repro.errors import ReproError
from repro.jittermargin.linearbound import LinearStabilityBound
from repro.rta.taskset import Task, TaskSet

from tests.anomalies import _list_detectors as reference

#: Harmonic decimal periods: sums of their multiples sit near, not on,
#: integer multiples of one another in binary floating point.
_PERIODS = (0.02, 0.1, 0.2, 0.3, 0.4, 0.5, 0.8, 1.0, 1.2, 1.6, 2.0)

_shrinks = st.floats(0.01, 0.99)
_stretches = st.floats(1.001, 3.0)


def _taskset(
    rng: np.random.Generator, n: int, *, stretch: float, overrun: bool
) -> TaskSet:
    """``n`` tasks on the decimal period grid, priorities drawn.

    Total utilisation is drawn from 0.5 to 1.3, so about a third of the
    sets saturate their lower tasks' hp sets.  With ``overrun`` the top
    task's period is cut below ``wcet / stretch`` after validation (a
    :class:`Task` refuses ``wcet > period``), so the period family must
    skip it as an interferer.
    """
    periods = np.sort(rng.choice(_PERIODS, size=n))
    shares = rng.dirichlet(np.ones(n)) * rng.uniform(0.5, 1.3)
    if rng.integers(2):
        priorities = np.arange(n, 0, -1)
    else:
        priorities = rng.permutation(n) + 1
    tasks = []
    for k in range(n):
        period = float(periods[k])
        wcet = round(min(max(float(shares[k] * period), 0.01), period), 2)
        bcet = wcet
        if rng.integers(2):
            bcet = round(min(max(wcet * float(rng.uniform(0.1, 1.0)), 0.01), wcet), 2)
        bound = None
        if rng.integers(3):
            bound = LinearStabilityBound(
                a=float(rng.uniform(1.0, 8.0)), b=float(rng.uniform(0.0, 4.0))
            )
        tasks.append(
            Task(
                name=f"t{k}",
                period=period,
                wcet=wcet,
                bcet=bcet,
                priority=int(priorities[k]),
                stability=bound,
            )
        )
    if overrun:
        top = max(tasks, key=lambda task: task.priority)
        top.period = top.wcet / (stretch * 1.5)
    return TaskSet(tasks)


def _fixture(a: float, b: float) -> TaskSet:
    """The priority-raise fixture with ``ctl``'s bound replaced.

    Raising ``ctl`` moves its interface from ``(L, J) = (8.35, 2.24)``
    to ``(6.49, 2.98)``, so any ``a > 2.52`` makes the raise an event.
    """
    taskset, name = priority_raise_anomaly_example()
    bound = LinearStabilityBound(a=a, b=b)
    return TaskSet(
        replace(task, stability=bound) if task.name == name else task
        for task in taskset
    )


def _hex(value):
    if value is None:
        return None
    return type(value).__name__, float.hex(value)


def _events(events):
    """Every field of every event; floats as ``(type, float.hex)``."""
    return [
        (
            event.kind,
            event.task_name,
            event.change,
            _hex(event.before.best),
            _hex(event.before.worst),
            _hex(event.after.best),
            _hex(event.after.worst),
            _hex(event.slack_before),
            _hex(event.slack_after),
        )
        for event in events
    ]


def _outcome(compute):
    """Hexed events of ``compute()``, or the error it raises."""
    try:
        return _events(compute())
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))


class TestDetectorOracle:
    @settings(max_examples=120)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        shrink=_shrinks,
        stretch=_stretches,
        overrun=st.booleans(),
    )
    def test_one_set_matches_reference(self, seed, n, shrink, stretch, overrun):
        rng = np.random.default_rng(seed)
        taskset = _taskset(rng, n, stretch=stretch, overrun=overrun)
        pairs = [
            (
                lambda: all_anomalies(taskset, shrink=shrink, stretch=stretch),
                lambda: reference.all_anomalies(
                    taskset, shrink=shrink, stretch=stretch
                ),
            ),
            (
                lambda: priority_raise_anomalies(taskset),
                lambda: reference.priority_raise_anomalies(taskset),
            ),
            (
                lambda: wcet_decrease_anomalies(taskset, shrink=shrink),
                lambda: reference.wcet_decrease_anomalies(taskset, shrink=shrink),
            ),
            (
                lambda: period_increase_anomalies(taskset, stretch=stretch),
                lambda: reference.period_increase_anomalies(
                    taskset, stretch=stretch
                ),
            ),
        ]
        for shipped, want in pairs:
            assert _outcome(shipped) == _outcome(want)

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=5),
        shrink=_shrinks,
        stretch=_stretches,
        a=st.floats(2.6, 10.0),
        b=st.floats(0.0, 40.0),
    )
    def test_pooled_call_matches_reference(
        self, seed, sizes, shrink, stretch, a, b
    ):
        rng = np.random.default_rng(seed)
        tasksets = [
            _taskset(rng, n, stretch=stretch, overrun=bool(rng.integers(4) == 0))
            for n in sizes
        ]
        tasksets.insert(int(rng.integers(len(tasksets) + 1)), _fixture(a, b))
        want = []
        for taskset in tasksets:
            outcome = _outcome(
                lambda: reference.all_anomalies(
                    taskset, shrink=shrink, stretch=stretch
                )
            )
            if outcome and outcome[0] == "error":
                # The pooled call raises the first set's error.
                want = outcome
                break
            want.append(outcome)
        try:
            pooled = population_anomalies(
                tasksets, shrink=shrink, stretch=stretch
            )
        except ReproError as exc:
            got = ("error", type(exc).__name__, str(exc))
        else:
            got = [_events(events) for events in pooled]
            assert any(events for events in got)
        assert got == want

    def test_non_convergent_set_raises_like_reference(self):
        # An infinite period never diverges under an overloaded hp set:
        # the record kernel raises after its 10 000 steps, on the same
        # problem from the record-kernel lane (one small set) and from
        # the stack's straggler fallback (pooled with a 12-task set).
        stuck = TaskSet(
            [
                Task("hog", period=1.0, wcet=1.0, bcet=0.5, priority=3),
                Task("mid", period=2.0, wcet=0.1, bcet=0.1, priority=2),
                Task("bad", period=float("inf"), wcet=1.0, bcet=0.5, priority=1),
            ]
        )
        rng = np.random.default_rng(5)
        large = _taskset(rng, 12, stretch=1.1, overrun=False)
        want = _outcome(lambda: reference.all_anomalies(stuck))
        assert want[0] == "error"
        assert _outcome(lambda: all_anomalies(stuck)) == want
        for tasksets in ([stuck, large], [large, stuck]):
            with pytest.raises(ReproError) as failure:
                population_anomalies(tasksets)
            error = failure.value
            assert ("error", type(error).__name__, str(error)) == want

    def test_empty_population(self):
        assert population_anomalies([]) == []
