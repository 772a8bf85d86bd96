"""Single-pass ordering heuristics (ablation baselines).

* **Rate monotonic** -- shorter period, higher priority (optimal for plain
  deadline schedulability with implicit deadlines, but oblivious to
  stability constraints: jitter does not enter the ordering at all).
* **Slack monotonic** -- one evaluation per task against all others as
  higher priority (the most pessimistic hp-set); tasks ordered by that
  slack, least slack highest priority.  Linear in evaluations, quadratic in
  arithmetic; trusts monotonicity twice over (both the ordering argument
  and the pessimism argument), so it fails more often than Unsafe
  Quadratic -- which is the point of the ablation.

Implemented as the ``"rate_monotonic"`` / ``"slack_monotonic"``
strategies of :mod:`repro.search`.
"""

from __future__ import annotations

from typing import Optional

from repro.rta.taskset import TaskSet
from repro.memo import AnalysisMemo
from repro.search.engine import run_strategy
from repro.search.result import AssignmentResult


def assign_rate_monotonic(
    taskset: TaskSet, *, memo: Optional[AnalysisMemo] = None
) -> AssignmentResult:
    """Shorter period -> higher priority; performs no constraint checks."""
    return run_strategy("rate_monotonic", taskset, memo=memo)


def assign_slack_monotonic(
    taskset: TaskSet, *, memo: Optional[AnalysisMemo] = None
) -> AssignmentResult:
    """Order by slack under the all-others-higher-priority assumption."""
    return run_strategy("slack_monotonic", taskset, memo=memo)
