"""repro.search -- the unified priority-assignment search engine.

All five assignment algorithms of the paper (Audsley OPA, backtracking
Algorithm 1, exhaustive enumeration, Unsafe Quadratic, and the ordering
heuristics) are bottom-up searches over the same exponential family of
subproblems: *"is task tau feasible at the lowest priority among a
candidate set?"*.  The seed implementations each re-derived that
predicate from scratch; this package factors the search machinery out:

* :class:`~repro.memo.AnalysisMemo` -- the shared evaluation memo of
  :mod:`repro.memo`, keyed by
  ``(task, frozenset(hp-set))`` so that overlapping subproblems (the
  backtracking/exhaustive trees, repeated algorithm runs over one
  instance, the codesign combination loop, edited models in the serve
  daemon) are never recomputed;
* :meth:`~repro.memo.MemoRun.level_slacks` -- batched sibling
  evaluation: all candidates of one search level are scored through
  the record kernel of :mod:`repro.memo.kernels`, float-for-float
  identical to the reference analyses of :mod:`repro.rta` (the
  equivalence the golden tests pin);
* :class:`~repro.memo.EvaluationCounter` -- the paper's
  logical-evaluation metric, unchanged: every predicate *query* counts,
  memo hits are tallied separately, so complexity tables stay comparable
  to the paper while ``recomputations`` exposes the engine's saving;
* :mod:`~repro.search.strategies` -- the algorithms as pluggable
  :class:`SearchStrategy` implementations over one engine entry point,
  :func:`~repro.search.engine.run_strategy`.

Quickstart::

    from repro.memo import AnalysisMemo
    from repro.search import run_strategy

    memo = AnalysisMemo()                         # share the memo ...
    opa = run_strategy("audsley", taskset, memo=memo)
    alg1 = run_strategy("backtracking", taskset, memo=memo)
    # ... alg1.evaluations matches the paper's count; alg1.cache_hits
    # shows how much of the tree the OPA run already paid for.
"""

from repro.memo import AnalysisMemo, EvaluationCounter
from repro.search.engine import run_strategy
from repro.search.result import AssignmentResult
from repro.search.strategies import STRATEGIES, SearchStrategy, strategy_names

__all__ = [
    "AnalysisMemo",
    "AssignmentResult",
    "EvaluationCounter",
    "SearchStrategy",
    "STRATEGIES",
    "run_strategy",
    "strategy_names",
]
