"""Task model of the paper (sec. II-A).

A :class:`Task` is a periodic control task ``tau_i`` with

* execution time between ``bcet`` (``c^b_i``) and ``wcet`` (``c^w_i``),
* sampling period ``period`` (``h_i``), which is also its implicit
  deadline,
* priority ``priority`` (``rho_i``; *larger value means higher priority*,
  matching the paper's convention ``rho_i > rho_j`` <=> higher priority),
* optionally, the stability constraint of the plant it controls (a
  :class:`~repro.jittermargin.linearbound.LinearStabilityBound`).

A :class:`TaskSet` is an ordered collection with the queries every analysis
needs (higher-priority subsets, utilisations, hyperperiod).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ModelError
from repro.jittermargin.linearbound import LinearStabilityBound


@dataclass
class Task:
    """A periodic (control) task.

    ``priority`` may be ``None`` while an assignment algorithm is still
    deciding; analyses that need priorities reject unassigned tasks.
    """

    name: str
    period: float
    wcet: float
    bcet: Optional[float] = None
    priority: Optional[int] = None
    stability: Optional[LinearStabilityBound] = None
    plant_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.bcet is None:
            self.bcet = self.wcet
        if self.period <= 0:
            raise ModelError(f"task {self.name!r}: period must be positive")
        if not (0 < self.bcet <= self.wcet):
            raise ModelError(
                f"task {self.name!r}: need 0 < bcet <= wcet, got "
                f"bcet={self.bcet}, wcet={self.wcet}"
            )
        if self.wcet > self.period:
            raise ModelError(
                f"task {self.name!r}: wcet {self.wcet} exceeds period "
                f"{self.period} (implicit deadline unschedulable alone)"
            )

    @property
    def utilization(self) -> float:
        """Worst-case utilisation ``c^w / h``."""
        return self.wcet / self.period

    @property
    def best_case_utilization(self) -> float:
        return self.bcet / self.period

    def with_priority(self, priority: Optional[int]) -> "Task":
        """A copy of the task with a different priority."""
        return replace(self, priority=priority)

    def copy(self) -> "Task":
        return replace(self)


class TaskSet:
    """An ordered, named collection of tasks."""

    def __init__(self, tasks: Iterable[Task]):
        self._tasks: List[Task] = list(tasks)
        names = [t.name for t in self._tasks]
        if len(set(names)) != len(names):
            raise ModelError(f"duplicate task names in task set: {names}")

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, index: int) -> Task:
        return self._tasks[index]

    def __repr__(self) -> str:
        return f"TaskSet({[t.name for t in self._tasks]})"

    @property
    def tasks(self) -> Tuple[Task, ...]:
        return tuple(self._tasks)

    def by_name(self, name: str) -> Task:
        for task in self._tasks:
            if task.name == name:
                return task
        raise ModelError(f"no task named {name!r} in {self!r}")

    # -- priorities ----------------------------------------------------------
    def priorities_assigned(self) -> bool:
        return all(t.priority is not None for t in self._tasks)

    def check_distinct_priorities(self) -> None:
        """Every task has a priority, none NaN, no two equal.

        A NaN priority compares false both ways, so it would order no
        task and slip past the equality check.
        """
        if not self.priorities_assigned():
            raise ModelError("task set has unassigned priorities")
        values = [t.priority for t in self._tasks]
        for task, value in zip(self._tasks, values):
            if value != value:
                raise ModelError(f"task {task.name!r} has a NaN priority")
        if len(set(values)) != len(values):
            raise ModelError(f"priorities are not distinct: {values}")

    def higher_priority(self, task: Task) -> Tuple[Task, ...]:
        """``hp(tau_i)``: tasks with strictly higher priority (paper sec. II-A)."""
        if task.priority is None:
            raise ModelError(f"task {task.name!r} has no priority")
        return tuple(
            other
            for other in self._tasks
            if other is not task
            and other.priority is not None
            and other.priority > task.priority
        )

    def sorted_by_priority(self, descending: bool = True) -> Tuple[Task, ...]:
        self.check_distinct_priorities()
        return tuple(
            sorted(self._tasks, key=lambda t: t.priority, reverse=descending)
        )

    def with_priorities(self, priorities: Dict[str, int]) -> "TaskSet":
        """A deep copy with priorities replaced by the given mapping."""
        missing = {t.name for t in self._tasks} - set(priorities)
        if missing:
            raise ModelError(f"priorities missing for tasks: {sorted(missing)}")
        return TaskSet(
            t.with_priority(priorities[t.name]) for t in self._tasks
        )

    def copy(self) -> "TaskSet":
        return TaskSet(t.copy() for t in self._tasks)

    # -- aggregate measures ---------------------------------------------------
    @property
    def utilization(self) -> float:
        """Total worst-case utilisation."""
        return sum(t.utilization for t in self._tasks)

    @property
    def best_case_utilization(self) -> float:
        return sum(t.best_case_utilization for t in self._tasks)

    def hyperperiod(self, *, max_denominator: int = 10**6) -> float:
        """Least common multiple of the (rationalised) periods.

        Periods are floats; each is approximated by the closest fraction
        with denominator up to ``max_denominator`` before taking the LCM.
        Used by the discrete-event simulator to size observation windows.
        """
        fractions = [
            Fraction(t.period).limit_denominator(max_denominator)
            for t in self._tasks
        ]
        common_den = 1
        for f in fractions:
            common_den = common_den * f.denominator // gcd(common_den, f.denominator)
        numerators = [int(f * common_den) for f in fractions]
        lcm_num = 1
        for num in numerators:
            lcm_num = lcm_num * num // gcd(lcm_num, num)
        return lcm_num / common_den
