"""The latency/jitter interface between scheduling and control (eq. (2)).

The paper splits the delay a control task experiences into

* **latency** ``L_i = R^b_i`` -- the constant part, and
* **response-time jitter** ``J_i = R^w_i - R^b_i`` -- the variable part,

computed from the exact best-/worst-case response-time analyses.  A
complete priority assignment is *valid* when every control task meets its
implicit deadline (``R^w_i <= h_i``, required for eq. (3) to be exact) and
its plant's linear stability constraint ``L_i + a_i J_i <= b_i`` holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.rta.bcrt import best_case_response_time
from repro.rta.taskset import Task, TaskSet
from repro.rta.wcrt import worst_case_response_time


@dataclass(frozen=True)
class ResponseTimes:
    """Best/worst response times and the derived latency/jitter metrics."""

    best: float
    worst: float

    @property
    def latency(self) -> float:
        """``L = R^b`` (paper eq. (2))."""
        return self.best

    @property
    def jitter(self) -> float:
        """``J = R^w - R^b`` (paper eq. (2))."""
        return self.worst - self.best

    @property
    def finite(self) -> bool:
        return self.worst != float("inf")


@dataclass(frozen=True)
class TasksetAnalysis:
    """Response-time interface and verdicts of one analysed task set."""

    times: Dict[str, ResponseTimes]
    deadlines_met: bool
    stable: bool
    violating: Tuple[str, ...]

    @classmethod
    def build(
        cls, tasks: Sequence[Task], entries: Iterable[Sequence[float]]
    ) -> "TasksetAnalysis":
        """Verdicts of ``tasks`` from per-task ``(best, worst, ...)`` entries.

        A task violates when it misses its deadline (``worst = inf``) or
        its stability bound; later entry fields (the memo's slack) are
        ignored.
        """
        times: Dict[str, ResponseTimes] = {}
        violating = []
        for task, entry in zip(tasks, entries):
            interface = ResponseTimes(best=entry[0], worst=entry[1])
            times[task.name] = interface
            ok = interface.finite
            if ok and task.stability is not None:
                ok = task.stability.is_stable(interface.latency, interface.jitter)
            if not ok:
                violating.append(task.name)
        return cls(
            times=times,
            deadlines_met=all(t.finite for t in times.values()),
            stable=not violating,
            violating=tuple(violating),
        )


def latency_jitter(
    task: Task,
    higher_priority: Sequence[Task],
    *,
    deadline: Optional[float] = None,
) -> ResponseTimes:
    """Exact response-time interface of one task against a given hp-set.

    ``deadline`` bounds the WCRT fixed point (defaults to the task's
    period, the implicit deadline); a WCRT beyond it is reported as ``inf``.
    """
    limit = task.period if deadline is None else deadline
    worst = worst_case_response_time(task, higher_priority, limit=limit)
    best = best_case_response_time(task, higher_priority)
    return ResponseTimes(best=best, worst=worst)


def response_time_interface(taskset: TaskSet) -> Dict[str, ResponseTimes]:
    """Latency/jitter of every task under the task set's priorities."""
    taskset.check_distinct_priorities()
    return {
        task.name: latency_jitter(task, taskset.higher_priority(task))
        for task in taskset
    }


def task_is_stable(
    task: Task,
    higher_priority: Sequence[Task],
) -> bool:
    """Deadline + stability verdict for one task against an hp-set.

    This is the predicate all priority-assignment algorithms evaluate
    (paper Algorithm 1, line 12): the exact response-time interface is
    computed and checked against the task's linear stability bound.  Tasks
    without a stability bound only need to meet their deadline.
    """
    times = latency_jitter(task, higher_priority)
    if not times.finite:
        return False
    if task.stability is None:
        return True
    return task.stability.is_stable(times.latency, times.jitter)
