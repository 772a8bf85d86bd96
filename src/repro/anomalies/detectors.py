"""Detectors for the three anomaly families (paper sec. I and [20]).

All detectors compare *exact* response-time interfaces before and after a
change that intuition says can only help:

* **priority raise** -- swapping a task up one priority level removes one
  interferer from its hp-set; monotonicity suggests (L, J) can only
  improve, yet the jitter ``J = R^w - R^b`` can grow because ``R^b`` may
  shrink faster than ``R^w`` (best case uses BCETs, worst case WCETs).
* **WCET decrease of an interferer** -- less interference in the worst
  case, unchanged best case: the task's jitter can only... shrink?  No:
  ``R^w`` can drop discontinuously past a period boundary while ``R^b``
  stays, which is fine -- but a *joint* WCET+BCET decrease can raise
  ``J``.
* **period increase of an interferer** -- fewer preemptions, yet the
  response-time interface of a lower-priority task can degrade, the case
  [20] demonstrates.

A detected anomaly is reported as an :class:`AnomalyEvent` carrying the
before/after interfaces and slacks so experiments can rank severity (a
slack-sign flip is a *destabilising* anomaly).

Every move of every family is one row of a
:class:`~repro.rta.popbatch.PopulationArrays` stack next to the
unperturbed rows of the analysis, so any number of task sets is
evaluated in one stacked pass (:func:`population_anomalies`); the
per-set functions are its one-set case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.api.service import task_verdict
from repro.errors import ModelError
from repro.rta.interface import ResponseTimes

# ``evaluate_problems`` stays importable from here: the traced census of
# ``perfbench/child.py`` wraps ``repro.anomalies.detectors
# .evaluate_problems`` by name.
from repro.rta.popbatch import PopulationArrays, evaluate_problems  # noqa: F401
from repro.rta.taskset import Task, TaskSet

#: The families in the order :func:`all_anomalies` reports them.
_KINDS = ("priority_raise", "wcet_decrease", "period_increase")

_INF = float("inf")


@dataclass(frozen=True)
class AnomalyEvent:
    """One detected monotonicity violation."""

    kind: str
    task_name: str
    change: str
    before: ResponseTimes
    after: ResponseTimes
    slack_before: Optional[float]
    slack_after: Optional[float]

    @property
    def jitter_increase(self) -> float:
        return self.after.jitter - self.before.jitter

    @property
    def destabilising(self) -> bool:
        """The change flipped the task from stable to unstable."""
        return (
            self.slack_before is not None
            and self.slack_after is not None
            and self.slack_before >= 0.0 > self.slack_after
        )


def _check(
    tasksets: Sequence[TaskSet],
    kinds: Sequence[str],
    shrink: float,
    stretch: float,
) -> None:
    """Each family checks its factor, then (once) every set's priorities."""
    checked = False
    for kind in kinds:
        if kind == "wcet_decrease" and not (0 < shrink < 1):
            raise ModelError(f"shrink factor must be in (0,1), got {shrink}")
        if kind == "period_increase" and stretch <= 1:
            raise ModelError(f"stretch factor must exceed 1, got {stretch}")
        if not checked:
            for taskset in tasksets:
                taskset.check_distinct_priorities()
            checked = True


def _family_pairs(
    population: PopulationArrays, kind: str, stretch: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``(observed, changed)`` of every move of one family, set by set.

    ``observed`` indexes the population's tasks, ``changed`` is the
    column (task-set slot) of the task the move changes.  A priority
    raise observes each task but the top one, in ascending priority
    order, and changes the task one level above it.  An interferer
    move pairs every interferer ``j`` with every lower-priority task
    ``i``, ``j`` then ``i`` in task-set order; a period increase skips
    interferers with ``wcet > period * stretch``.
    """
    rank = population.rank
    if kind == "priority_raise":
        # ``by_rank[s, r]``: the column of set ``s``'s task of rank ``r``.
        by_rank = np.full(rank.shape, -1, dtype=np.intp)
        task_set, slot = population.task_set, population.task_slot
        by_rank[task_set, rank[task_set, slot]] = slot
        sets, level = np.nonzero(by_rank[:, 1:] >= 0)
        observed = population.offset[sets] + by_rank[sets, level]
        return observed, by_rank[sets, level + 1]
    moves = (rank[:, :, None] > rank[:, None, :]) & (rank[:, None, :] >= 0)
    if kind == "period_increase":
        moves &= ~(population.wcet > population.period * stretch)[:, :, None]
    sets, changed, slot = np.nonzero(moves)
    return population.offset[sets] + slot, changed


def _detect(
    tasksets: Sequence[TaskSet],
    kinds: Sequence[str],
    shrink: float = 0.9,
    stretch: float = 1.1,
) -> List[List[AnomalyEvent]]:
    """The anomaly events of ``kinds`` in every set, one stacked pass.

    Row ``t < n`` of the stack is population task ``t`` against its own
    hp mask (the :func:`~repro.rta.popbatch.analyze_population` row);
    each move adds one perturbed row of its observed task after them:

    * priority raise -- the column of the task one level above is
      cleared (no priority lies between the two, so that is the raised
      task's hp set after the swap, in task-set order);
    * WCET decrease -- the interferer's column holds ``wcet * shrink``
      and ``bcet * shrink``;
    * period increase -- the interferer's column holds ``period *
      stretch``.

    A rescaled column's ``bcet / period`` is recomputed as
    :func:`~repro.memo.kernels.make_record` does it, so every row is
    the problem the v5.0.0 list-built detectors posed.  Slacks compare
    in the scalar expression order (``b - best - a * (worst - best)``,
    ``-inf`` on a deadline miss; jitter for tasks without a bound), and
    an :class:`AnomalyEvent` is built only for a move that got worse.
    Per set, events come family by family in move order; record-kernel
    rows run in the serial detectors' order (set by set, each move's
    before row then its after row), so a
    :class:`~repro.errors.ScheduleError` raises on the same problem.
    """
    _check(tasksets, kinds, shrink, stretch)
    events: List[List[AnomalyEvent]] = [[] for _ in tasksets]
    if not tasksets:
        return events
    population = PopulationArrays(tasksets)
    tasks = population.tasks
    n = len(tasks)
    pairs = [_family_pairs(population, kind, stretch) for kind in kinds]
    observed = np.concatenate([moved for moved, _ in pairs])
    changed = np.concatenate([column for _, column in pairs])
    family = np.repeat(np.arange(len(kinds)), [len(moved) for moved, _ in pairs])
    rows = np.concatenate([np.arange(n), observed])
    after = np.arange(n, len(rows))
    sets = population.task_set[rows]

    hp = population.hp_mask(rows)
    period, wcet, bcet, quot = cells = population.cells(rows)
    for k, kind in enumerate(kinds):
        at = (after[family == k], changed[family == k])
        owner = (sets[at[0]], at[1])
        if kind == "priority_raise":
            hp[at] = False
        elif kind == "wcet_decrease":
            wcet[at] = population.wcet[owner] * shrink
            bcet[at] = population.bcet[owner] * shrink
            quot[at] = bcet[at] / population.period[owner]
        else:
            period[at] = population.period[owner] * stretch
            quot[at] = population.bcet[owner] / period[at]
    serial = np.argsort(sets[n:], kind="stable")
    order = np.column_stack((observed[serial], after[serial])).ravel().tolist()
    best, worst = population.solve(rows, hp, cells, order)

    bounds = [task.stability for task in tasks]
    bounded = np.array([bound is not None for bound in bounds], dtype=bool)
    bound_a = np.array([np.nan if bound is None else bound.a for bound in bounds])
    bound_b = np.array([np.nan if bound is None else bound.b for bound in bounds])
    with np.errstate(invalid="ignore"):
        jitter = worst - best
        slack = np.where(
            worst == _INF, -_INF, bound_b[rows] - best - bound_a[rows] * jitter
        )
        worse = np.where(
            bounded[observed],
            slack[after] < slack[observed] - 1e-12,
            jitter[after] > jitter[observed] + 1e-12,
        )
    for move in np.flatnonzero(worse).tolist():
        t, r = int(observed[move]), n + move
        kind = kinds[family[move]]
        other = population.task_lists[sets[r]][changed[move]].name
        if kind == "priority_raise":
            change = f"swap above {other}"
        elif kind == "wcet_decrease":
            change = f"{other} executed {shrink:g}x faster"
        else:
            change = f"{other} period x{stretch:g}"
        events[sets[r]].append(
            AnomalyEvent(
                kind=kind,
                task_name=tasks[t].name,
                change=change,
                before=ResponseTimes(best=float(best[t]), worst=float(worst[t])),
                after=ResponseTimes(best=float(best[r]), worst=float(worst[r])),
                slack_before=float(slack[t]) if bounded[t] else None,
                slack_after=float(slack[r]) if bounded[t] else None,
            )
        )
    return events


def jitter_after_priority_raise(
    taskset: TaskSet, task_name: str
) -> Tuple[ResponseTimes, ResponseTimes]:
    """Interfaces of ``task_name`` before/after a one-level priority raise.

    Raising swaps the task with the task exactly one level above it.
    Raises :class:`ModelError` if the task already has the highest
    priority.
    """
    taskset.check_distinct_priorities()
    task = taskset.by_name(task_name)
    above = _task_one_level_above(taskset, task)
    before = task_verdict(task, taskset.higher_priority(task)).times
    swapped = _swap_priorities(taskset, task.name, above.name)
    task_after = swapped.by_name(task_name)
    after = task_verdict(
        task_after, swapped.higher_priority(task_after)
    ).times
    return before, after


def priority_raise_anomalies(taskset: TaskSet) -> List[AnomalyEvent]:
    """All one-level priority raises that worsen the raised task.

    "Worsen" means the stability slack decreases (or, for tasks without a
    bound, the jitter increases) even though the raise removes an
    interferer -- the headline anomaly of the paper.
    """
    (events,) = _detect([taskset], ("priority_raise",))
    return events


def wcet_decrease_anomalies(
    taskset: TaskSet,
    *,
    shrink: float = 0.9,
) -> List[AnomalyEvent]:
    """Anomalies where shrinking an interferer's execution times hurts.

    For every pair (interferer ``tau_j``, observed ``tau_i`` with lower
    priority), both execution-time bounds of ``tau_j`` are scaled by
    ``shrink`` and the observed task's interface re-evaluated.  Faster
    higher-priority code should never destabilise anyone -- when it does,
    that is the anomaly (cf. Racu & Ernst, the paper's reference [18]).
    """
    (events,) = _detect([taskset], ("wcet_decrease",), shrink=shrink)
    return events


def period_increase_anomalies(
    taskset: TaskSet,
    *,
    stretch: float = 1.1,
) -> List[AnomalyEvent]:
    """Anomalies where slowing an interferer's rate hurts a lower task.

    Scales an interferer's period by ``stretch`` (execution times
    unchanged, so its utilisation *drops*) and re-evaluates every
    lower-priority task -- the second anomaly [20] demonstrates.
    """
    (events,) = _detect([taskset], ("period_increase",), stretch=stretch)
    return events


def all_anomalies(
    taskset: TaskSet,
    *,
    shrink: float = 0.9,
    stretch: float = 1.1,
) -> List[AnomalyEvent]:
    """All three anomaly families in one stacked pass.

    Returns exactly ``priority_raise_anomalies(ts) +
    wcet_decrease_anomalies(ts, shrink=shrink) +
    period_increase_anomalies(ts, stretch=stretch)``: the one-set case
    of :func:`population_anomalies`.
    """
    (events,) = _detect([taskset], _KINDS, shrink, stretch)
    return events


def population_anomalies(
    tasksets: Sequence[TaskSet],
    *,
    shrink: float = 0.9,
    stretch: float = 1.1,
) -> List[List[AnomalyEvent]]:
    """:func:`all_anomalies` of every set, evaluated as one stack.

    Equal to ``[all_anomalies(ts, shrink=shrink, stretch=stretch) for
    ts in tasksets]``; the census poses one sweep chunk's feasible sets
    per call.
    """
    return _detect(tasksets, _KINDS, shrink, stretch)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _task_one_level_above(taskset: TaskSet, task: Task) -> Task:
    higher = [
        t
        for t in taskset
        if t.priority is not None and t.priority > task.priority
    ]
    if not higher:
        raise ModelError(f"task {task.name!r} already has the highest priority")
    return min(higher, key=lambda t: t.priority)


def _swap_priorities(taskset: TaskSet, name_a: str, name_b: str) -> TaskSet:
    pa = taskset.by_name(name_a).priority
    pb = taskset.by_name(name_b).priority
    priorities = {
        t.name: (pb if t.name == name_a else pa if t.name == name_b else t.priority)
        for t in taskset
    }
    return taskset.with_priorities(priorities)
