"""Concrete anomaly instances: executable counterparts of [20]'s examples.

:func:`priority_raise_anomaly_example` returns a small, fixed task set in
which *raising* a control task's priority strictly increases its
response-time jitter -- the paper's headline counter-example to "more
resource is always better".  The instance is the verbatim output of
:func:`find_priority_raise_anomaly` in its fixture-shaped mode (the exact
invocation is pinned in the test suite, so the provenance claim is
enforced, not just asserted) and is pinned as a regression fixture with
exact expected numbers in the test suite.

Mechanism of the fixture: with low priority, the task's best and worst
cases both suffer interference and ``R^w - R^b`` is moderate; after the
raise, the *best* case sheds almost all interference (interferers at BCET
fit before it) while the *worst* case sheds only part of one preemption
(interferers at WCET still hit), so the spread ``J`` widens.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.anomalies.detectors import (
    jitter_after_priority_raise,
    priority_raise_anomalies,
)
from repro.jittermargin.linearbound import LinearStabilityBound
from repro.rta.taskset import Task, TaskSet

#: Pinned invocation reproducing the fixture of
#: :func:`priority_raise_anomaly_example`:
#: ``find_priority_raise_anomaly(trials=FIXTURE_SEARCH_TRIALS,
#: seed=FIXTURE_SEARCH_SEED, fixture_shaped=True)``.
FIXTURE_SEARCH_SEED = 7
FIXTURE_SEARCH_TRIALS = 250

#: Period menu of the random searches (harmonic-ish values make the
#: response-time cascades that fuel jitter anomalies).
_SEARCH_PERIODS = (2.0, 4.0, 5.0, 8.0, 10.0, 16.0, 20.0)

#: Role names of the fixture-shaped family, in increasing-period order.
_FIXTURE_NAMES = ("fast", "quick", "mid", "ctl")


def priority_raise_anomaly_example() -> Tuple[TaskSet, str]:
    """A fixed 4-task instance where a priority raise increases jitter.

    Returns ``(taskset, task_name)``: raising ``task_name`` one level
    (above ``mid``) changes its exact response-time interface from
    ``(L, J) = (8.35, 2.24)`` to ``(6.49, 2.98)`` -- the latency improves
    but the jitter *grows*, and under the stability bound
    ``L + 2.78 J <= 14.68`` the task flips from stable (metric 14.5772,
    slack +0.1028) to unstable (metric 14.7744, slack -0.0944).  The
    instance is the verbatim output of
    ``find_priority_raise_anomaly(trials=FIXTURE_SEARCH_TRIALS,
    seed=FIXTURE_SEARCH_SEED, fixture_shaped=True)`` -- the provenance
    test re-runs that search and asserts exact equality.

    Mechanism: removing ``mid`` from the hp-set shortens the best case by
    a whole cascade (the best-case fixed point drops across a release
    boundary of the fast interferers, shedding their best-case
    preemptions too) while the worst case sheds only ``mid``'s direct
    worst-case interference -- so ``R^b`` falls by 1.86 but ``R^w`` only
    by 1.12, widening ``J``.
    """
    tasks = [
        Task(name="fast", period=4.0, wcet=1.43, bcet=1.36, priority=4),
        Task(name="quick", period=5.0, wcet=0.04, bcet=0.03, priority=3),
        Task(name="mid", period=8.0, wcet=0.54, bcet=0.5, priority=2),
        Task(
            name="ctl",
            period=16.0,
            wcet=5.1,
            bcet=5.1,
            priority=1,
            stability=LinearStabilityBound(a=2.78, b=14.68),
        ),
    ]
    return TaskSet(tasks), "ctl"


def _draw_fixture_shaped(rng: np.random.Generator) -> Optional[TaskSet]:
    """One draw of the fixture-shaped family (no stability bound yet).

    Four tasks with sorted distinct periods, rate-monotonic priorities and
    all parameters quantised to 2 decimals; the lowest-priority task is
    the control task and executes for a constant time (``bcet == wcet``),
    so all of its jitter comes from interference.
    """
    periods = np.sort(rng.choice(_SEARCH_PERIODS, size=4, replace=False))
    total_u = rng.uniform(0.5, 0.9)
    shares = rng.dirichlet(np.ones(4)) * total_u
    tasks = []
    for i in range(4):
        wcet = round(
            min(max(float(shares[i] * periods[i]), 0.01), float(periods[i])), 2
        )
        fraction = float(rng.uniform(0.1, 1.0))
        bcet = round(min(max(wcet * fraction, 0.01), wcet), 2)
        if i == 3:
            bcet = wcet
        tasks.append(
            Task(
                name=_FIXTURE_NAMES[i],
                period=float(periods[i]),
                wcet=wcet,
                bcet=bcet,
                priority=4 - i,
            )
        )
    try:
        return TaskSet(tasks)
    except Exception:
        return None


def _pin_fixture_budget(
    taskset: TaskSet, a: float
) -> Optional[TaskSet]:
    """Guide the budget ``b`` into the destabilising window, if one exists.

    Given a drawn task set and slope ``a``, checks whether raising the
    control task increases the stability metric ``L + a J``; if so, pins
    the budget halfway between the before/after metrics (rounded to 2
    decimals) so the raise flips the verdict -- the way such
    counter-examples are constructed in the literature.  Returns ``None``
    when the raise is not anomalous under ``a``, when rounding collapses
    the window, or when the resulting budget is implausible for the
    control period.
    """
    try:
        before, after = jitter_after_priority_raise(taskset, "ctl")
    except Exception:
        return None
    if not (before.finite and after.finite):
        return None
    metric_before = before.latency + a * before.jitter
    metric_after = after.latency + a * after.jitter
    if metric_after <= metric_before:
        return None
    b = round((metric_before + metric_after) / 2.0, 2)
    if not (metric_before <= b < metric_after):
        return None
    ctl = taskset.by_name("ctl")
    if not (0.8 * ctl.period <= b <= 1.4 * ctl.period):
        return None
    return TaskSet(
        t
        if t.name != "ctl"
        else Task(
            name=t.name,
            period=t.period,
            wcet=t.wcet,
            bcet=t.bcet,
            priority=t.priority,
            stability=LinearStabilityBound(a=a, b=b),
        )
        for t in taskset
    )


def find_priority_raise_anomaly(
    *,
    trials: int = 20_000,
    seed: int = 1,
    require_destabilising: bool = False,
    fixture_shaped: bool = False,
) -> Optional[TaskSet]:
    """Guided random search for a priority-raise anomaly instance.

    Two families:

    * default -- small task sets (3-4 tasks) with heavy execution-time
      variation and a randomly drawn stability bound on every task;
      returns the first set where some one-level raise degrades a task
      (``require_destabilising`` additionally demands a stability flip).
      Returning ``None`` within ``trials`` is itself evidence of rarity
      and is measured by the census module instead.
    * ``fixture_shaped`` -- the family of the pinned regression fixture:
      four tasks, 2-decimal quantised parameters, the lowest-priority
      control task with constant execution time and the *only* stability
      bound, whose budget is guided into the destabilising window of an
      anomalous raise (see :func:`_pin_fixture_budget`).  The fixture of
      :func:`priority_raise_anomaly_example` is the verbatim output at
      ``(seed=FIXTURE_SEARCH_SEED, trials=FIXTURE_SEARCH_TRIALS)``.
      Hits are always destabilising and always valid before the raise.
    """
    # Imported lazily: the façade sits above this package.
    from repro.api.service import analyze

    rng = np.random.default_rng(seed)
    for _ in range(trials):
        if fixture_shaped:
            taskset = _draw_fixture_shaped(rng)
            a = round(float(rng.uniform(1.0, 3.0)), 2)
            if taskset is None:
                continue
            pinned = _pin_fixture_budget(taskset, a)
            if pinned is None:
                continue
            if not analyze(pinned).stable:
                continue
            events = priority_raise_anomalies(pinned)
            if any(e.task_name == "ctl" and e.destabilising for e in events):
                return pinned
            continue
        n = int(rng.integers(3, 5))
        periods = rng.choice(_SEARCH_PERIODS, size=n, replace=False)
        periods = np.sort(periods)
        tasks = []
        total_u = rng.uniform(0.5, 0.9)
        shares = rng.dirichlet(np.ones(n)) * total_u
        for i in range(n):
            wcet = max(float(shares[i] * periods[i]), 1e-3)
            bcet = wcet * float(rng.uniform(0.1, 1.0))
            stability = LinearStabilityBound(
                a=float(rng.uniform(1.0, 3.0)),
                b=float(periods[i] * rng.uniform(0.4, 1.0)),
            )
            tasks.append(
                Task(
                    name=f"t{i}",
                    period=float(periods[i]),
                    wcet=wcet,
                    bcet=bcet,
                    priority=n - i,  # rate monotonic
                    stability=stability,
                )
            )
        taskset = TaskSet(tasks)
        events = priority_raise_anomalies(taskset)
        if not events:
            continue
        if require_destabilising and not any(e.destabilising for e in events):
            continue
        return taskset
    return None
