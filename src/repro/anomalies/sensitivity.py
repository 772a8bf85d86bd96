"""Sensitivity analysis of stability constraints (paper sec. I, ref [17]).

The paper's abstract example of design complexity: to maximise a parameter
``x`` under a constraint ``f(x) <= 0``, *monotonicity* of ``f`` enables
binary search -- "by checking the constraint for one value of x, we can
find out if the optimum satisfies y < x or y > x.  Hence efficient pruning
of the search space."  Without monotonicity, binary search silently
returns wrong answers.

:func:`priority_level_margin` answers the sensitivity question for a
task's priority level, where monotonicity famously fails: it evaluates
every level and returns the slack profile, so callers can *see* the
anomaly instead of trusting a pruned search.

Scaling one task's demand (WCET and BCET by a common factor) is no
safer.  The constraint metric ``L + aJ = a R^w - (a - 1) R^b`` *falls*
when a lower-priority task's best-case response ``R^b`` jumps, which a
larger interferer can cause, so validity is not monotone in the factor.
``tests/anomalies/test_sensitivity.py`` pins a two-task set that is
valid at factors 2.19 and 2.21 but invalid at 2.2; a bisection on the
factor would step over that window.  This module therefore offers no
demand-scaling margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.api.service import task_verdict
from repro.rta.taskset import TaskSet


@dataclass(frozen=True)
class PriorityLevelProfile:
    """Stability slack of one task at every priority level.

    ``slacks[k]`` is the task's constraint slack when assigned priority
    level ``levels[k]`` (other tasks keeping their relative order).  A
    profile that is not monotone in the level *is* a priority anomaly; the
    paper's point is that bisection over levels would then be unsound.
    """

    task_name: str
    levels: Tuple[int, ...]
    slacks: Tuple[float, ...]

    @property
    def is_monotone(self) -> bool:
        return all(
            b >= a - 1e-12 for a, b in zip(self.slacks, self.slacks[1:])
        )

    @property
    def best_level(self) -> int:
        best = max(range(len(self.levels)), key=lambda k: self.slacks[k])
        return self.levels[best]


def priority_level_margin(taskset: TaskSet, task_name: str) -> PriorityLevelProfile:
    """Slack of ``task_name`` at each priority level (exhaustive).

    The priority level admits no monotonicity guarantee (the paper's
    headline anomaly), so every level is evaluated.
    Other tasks keep their relative order; the probed task is inserted at
    each level 1..n.
    """
    taskset.check_distinct_priorities()
    target = taskset.by_name(task_name)
    others = [
        t for t in taskset.sorted_by_priority(descending=False)
        if t.name != task_name
    ]
    n = len(taskset)
    levels: List[int] = []
    slacks: List[float] = []
    for level in range(1, n + 1):
        # Rebuild priorities: others keep order, target inserted at level.
        order = others[: level - 1] + [target] + others[level - 1 :]
        priorities = {t.name: i + 1 for i, t in enumerate(order)}
        probed = taskset.with_priorities(priorities)
        probed_target = probed.by_name(task_name)
        verdict = task_verdict(
            probed_target, probed.higher_priority(probed_target)
        )
        if not verdict.deadline_met:
            slack = float("-inf")
        elif verdict.slack is None:
            # No stability bound: headroom to the implicit deadline.
            slack = target.period - verdict.times.worst
        else:
            slack = verdict.slack
        levels.append(level)
        slacks.append(slack)
    return PriorityLevelProfile(
        task_name=task_name, levels=tuple(levels), slacks=tuple(slacks)
    )
