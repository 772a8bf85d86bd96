"""The "Unsafe Quadratic" baseline of the paper's experiments (sec. V).

Reconstruction of the priority-assignment algorithm of Aminifar et al.
(EMSOFT 2013, the paper's reference [20]), "modified to use the exact
response times" as the paper specifies: a bottom-up greedy that trusts the
monotonicity property.

At each priority level, every remaining task's stability slack is
evaluated assuming all other remaining tasks have higher priority, and the
maximum-slack task is committed to the level -- *without backtracking and
even if its constraint is violated*.  Under monotonicity this is safe: if
any complete valid assignment exists, a feasible task exists at every
level (Audsley's argument), so the greedy never commits a violation.  When
an anomaly breaks monotonicity the greedy can run into a dead end, commits
anyway, and the resulting assignment is **invalid** -- these are exactly
the rare failures counted in Table I.

Cost: level ``rho`` evaluates ``n - rho + 1`` candidates; the whole run is
``n(n+1)/2`` constraint evaluations -- the "Quadratic" in the name.
Implemented as the ``"unsafe_quadratic"`` strategy of :mod:`repro.search`.
"""

from __future__ import annotations

from typing import Optional

from repro.rta.taskset import TaskSet
from repro.memo import AnalysisMemo
from repro.search.engine import run_strategy
from repro.search.result import AssignmentResult


def assign_unsafe_quadratic(
    taskset: TaskSet, *, memo: Optional[AnalysisMemo] = None
) -> AssignmentResult:
    """Run the monotonicity-trusting greedy; always commits to an order.

    ``claims_valid`` reports whether every committed task actually
    satisfied its constraint at commit time; the experiments re-validate
    independently via :func:`repro.api.analyze`.
    """
    return run_strategy("unsafe_quadratic", taskset, memo=memo)
