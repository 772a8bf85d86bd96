"""The assignment algorithms as pluggable strategies of one engine.

Each strategy reproduces its seed implementation decision-for-decision
(same candidate enumeration order, same tie-breaks, same evaluation
counts -- the golden tests in ``tests/search/`` pin byte equality on
hundreds of random task sets) while drawing every predicate evaluation
from the shared :class:`~repro.memo.AnalysisMemo`:

* whole search levels are scored through the batched sibling kernel
  (:meth:`~repro.memo.MemoRun.level_slacks`) instead of one
  scalar interface call per candidate;
* revisited ``(task, hp-set)`` subproblems -- the overlap that makes the
  backtracking and exhaustive trees exponential -- come from the memo,
  with the logical :class:`~repro.memo.EvaluationCounter` still
  ticking exactly as the paper counts.

A strategy returns ``(priorities, claims_valid, backtracks)``; the engine
(:func:`repro.search.engine.run_strategy`) wraps that into the timed
:class:`~repro.search.result.AssignmentResult`.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Tuple

from repro.errors import ModelError, ScheduleError
from repro.rta.taskset import TaskSet
from repro.memo import MemoRun

#: Raw strategy outcome: priorities (or None), claims_valid, backtracks.
Outcome = Tuple[Optional[Dict[str, int]], Optional[bool], int]

#: Hard cap of the exhaustive scan: 9! = 362880 orders is already ~1e6
#: constraint evaluations (kept from the seed implementation).
MAX_EXHAUSTIVE_TASKS = 9


class SearchStrategy:
    """One priority-assignment algorithm plugged into the engine."""

    #: Registry key and ``AssignmentResult.algorithm`` value.
    name: str = ""

    def search(self, taskset: TaskSet, run: MemoRun, **options) -> Outcome:
        raise NotImplementedError


class _BudgetExhausted(ScheduleError):
    """Internal: evaluation budget hit during the recursive search."""


def _reject_options(name: str, options: dict) -> None:
    if options:
        raise ModelError(
            f"strategy {name!r} got unknown options {sorted(options)}"
        )


class GreedyBottomUp(SearchStrategy):
    """Shared body of Audsley OPA and Unsafe Quadratic.

    Both walk levels bottom-up committing the max-slack candidate; they
    differ only at a dead end -- OPA fails cleanly, Unsafe Quadratic
    commits anyway (and owns the paper's Table I invalid solutions).
    """

    #: Whether a violated best slack aborts the run (OPA) or is committed
    #: past (Unsafe Quadratic).
    stop_on_violation: bool = True

    def search(self, taskset: TaskSet, run: MemoRun, **options) -> Outcome:
        _reject_options(self.name, options)
        remaining = run.memo.intern_all(taskset)
        assignment: Dict[str, int] = {}
        believed_valid = True
        for level in range(1, len(remaining) + 1):
            slacks = run.level_slacks(remaining)
            best_index = -1
            best_slack = float("-inf")
            for index, slack in enumerate(slacks):
                if slack > best_slack:
                    best_slack = slack
                    best_index = index
            if best_slack < 0.0:
                if self.stop_on_violation:
                    return None, False, 0
                believed_valid = False  # dead end: committed past a violation
            chosen = remaining.pop(best_index)
            assignment[run.memo.name(chosen)] = level
        return assignment, believed_valid, 0


class AudsleyStrategy(GreedyBottomUp):
    """OPA with max-slack tie-breaking; fails cleanly at dead ends."""

    name = "audsley"
    stop_on_violation = True


class UnsafeQuadraticStrategy(GreedyBottomUp):
    """The monotonicity-trusting greedy; always commits to an order."""

    name = "unsafe_quadratic"
    stop_on_violation = False


class BacktrackingStrategy(SearchStrategy):
    """Algorithm 1 of the paper: bottom-up assignment with backtracking."""

    name = "backtracking"

    def search(
        self,
        taskset: TaskSet,
        run: MemoRun,
        *,
        max_evaluations: int = 10_000_000,
        **options,
    ) -> Outcome:
        _reject_options(self.name, options)
        memo = run.memo
        counter = run.counter
        assignment: Dict[str, int] = {}
        backtracks = 0

        def backtrack(remaining: List[int], level: int) -> bool:
            nonlocal backtracks
            if not remaining:
                return True  # paper line 8: terminate
            if counter.count > max_evaluations:
                raise _BudgetExhausted()
            # Score the whole level in one batched call (paper lines
            # 10-12), then try candidates most-slack-first.
            slacks = run.level_slacks(remaining)
            scored = sorted(
                ((slacks[i], i) for i in range(len(remaining))),
                key=lambda item: (-item[0], item[1]),
            )
            for slack, index in scored:
                if slack < 0.0:
                    break  # all remaining candidates are infeasible here
                tid = remaining[index]
                assignment[memo.name(tid)] = level
                if backtrack(
                    remaining[:index] + remaining[index + 1 :], level + 1
                ):
                    return True
                del assignment[memo.name(tid)]  # paper line 15
                backtracks += 1
            return False

        try:
            found = backtrack(memo.intern_all(taskset), 1)
        except _BudgetExhausted:
            return None, False, backtracks
        return (dict(assignment) if found else None), found, backtracks


class ExhaustiveStrategy(SearchStrategy):
    """Lexicographic permutation scan: ground truth for small ``n``.

    The permutation tree revisits each ``(task, hp-set)`` subproblem up
    to ``|hp|!`` times; the memo answers all but the first, which is
    where the engine's headline recomputation saving comes from.
    """

    name = "exhaustive"

    def search(self, taskset: TaskSet, run: MemoRun, **options) -> Outcome:
        _reject_options(self.name, options)
        check_exhaustive_size(len(taskset), "exhaustive search")
        ids = run.memo.intern_all(taskset)
        for order in itertools.permutations(ids):
            if _order_is_valid(order, run):
                return (
                    {
                        run.memo.name(tid): level + 1
                        for level, tid in enumerate(order)
                    },
                    True,
                    0,
                )
        return None, False, 0


class RateMonotonicStrategy(SearchStrategy):
    """Shorter period -> higher priority; performs no constraint checks."""

    name = "rate_monotonic"

    def search(self, taskset: TaskSet, run: MemoRun, **options) -> Outcome:
        _reject_options(self.name, options)
        ordered = sorted(taskset, key=lambda t: t.period, reverse=True)
        return (
            {task.name: level + 1 for level, task in enumerate(ordered)},
            None,
            0,
        )


class SlackMonotonicStrategy(SearchStrategy):
    """Order by slack under the all-others-higher-priority assumption."""

    name = "slack_monotonic"

    def search(self, taskset: TaskSet, run: MemoRun, **options) -> Outcome:
        _reject_options(self.name, options)
        ids = run.memo.intern_all(taskset)
        slacks = run.level_slacks(ids)
        scored = [
            (slacks[i], run.memo.name(tid)) for i, tid in enumerate(ids)
        ]
        # Most slack -> lowest priority (level 1 first).
        scored.sort(key=lambda item: -item[0])
        return (
            {name: level + 1 for level, (_, name) in enumerate(scored)},
            None,
            0,
        )


def _order_is_valid(order: Tuple[int, ...], run: MemoRun) -> bool:
    """Check a complete order bottom-up, short-circuiting on violations.

    ``order[0]`` has the lowest priority; task ``order[k]``'s
    higher-priority set is ``order[k+1:]``.
    """
    for position, tid in enumerate(order):
        if run.slack_ids(tid, order[position + 1 :]) < 0.0:
            return False
    return True


def check_exhaustive_size(n: int, what: str) -> None:
    if n > MAX_EXHAUSTIVE_TASKS:
        raise ModelError(
            f"{what} limited to {MAX_EXHAUSTIVE_TASKS} tasks; "
            f"got {n} ({math.factorial(n)} orders)"
        )


#: The strategy registry: algorithm name -> singleton instance.
STRATEGIES: Dict[str, SearchStrategy] = {
    strategy.name: strategy
    for strategy in (
        RateMonotonicStrategy(),
        SlackMonotonicStrategy(),
        AudsleyStrategy(),
        UnsafeQuadraticStrategy(),
        BacktrackingStrategy(),
        ExhaustiveStrategy(),
    )
}


def strategy_names() -> Tuple[str, ...]:
    """Registered algorithm names, sorted."""
    return tuple(sorted(STRATEGIES))
