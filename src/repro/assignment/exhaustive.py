"""Brute-force priority assignment: ground truth for small task sets.

Enumerates priority orders until a valid one is found (or all ``n!`` are
exhausted).  The paper invokes this as the strawman -- "the number of all
possible design solutions are 20!, which takes more than 20 years to
enumerate" -- so the module guards against accidental large-``n`` use.
It also provides :func:`count_valid_orders`, used by the anomaly census to
measure how constrained an instance really is.

Implemented as the ``"exhaustive"`` strategy of :mod:`repro.search`.  The
permutation tree revisits each ``(task, hp-set)`` subproblem up to
``|hp|!`` times; on the engine those repeats come from the memo
(the logical evaluation count stays exactly the paper's).
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.rta.taskset import TaskSet
from repro.memo import AnalysisMemo
from repro.search.engine import run_strategy
from repro.search.result import AssignmentResult
from repro.search.strategies import (
    MAX_EXHAUSTIVE_TASKS as _MAX_EXHAUSTIVE_TASKS,
)
from repro.search.strategies import _order_is_valid, check_exhaustive_size


def assign_exhaustive(
    taskset: TaskSet, *, memo: Optional[AnalysisMemo] = None
) -> AssignmentResult:
    """Try lexicographic priority orders until one is valid."""
    return run_strategy("exhaustive", taskset, memo=memo)


def count_valid_orders(
    taskset: TaskSet, *, memo: Optional[AnalysisMemo] = None
) -> int:
    """Number of valid priority orders (exact, small ``n`` only)."""
    check_exhaustive_size(len(taskset), "count_valid_orders")
    run = (memo if memo is not None else AnalysisMemo()).run()
    ids = run.memo.intern_all(taskset)
    return sum(
        1 for order in itertools.permutations(ids) if _order_is_valid(order, run)
    )
