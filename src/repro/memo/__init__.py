"""repro.memo -- the shared analysis-memo layer.

Every analysis in this library bottoms out in the same subproblem: the
exact response-time interface of one task against one higher-priority
set, followed by the linear stability bound (the predicate of paper
Algorithm 1, line 12).  The search engine of :mod:`repro.search` proved
(PR 4) that content-interning tasks and memoising that subproblem by
``(task, frozenset(hp-set))`` reproduces the seed analyses bit-for-bit
at near-zero recomputation.  This package promotes that machinery from a
search-private helper into a first-class layer the whole stack consumes:

* :class:`~repro.memo.core.AnalysisMemo` -- content-interned tasks, the
  ``(task_id, frozenset(hp_ids)) -> (best, worst, slack)`` memo, and
  aggregate :class:`~repro.memo.core.EvaluationCounter` totals.  Thread
  safe (the serve daemon's dispatch thread and event loop share one) and
  process-lifetime-capable: ``max_entries`` bounds the memo with LRU
  eviction, ``stats()`` snapshots the counters consistently.
* :mod:`~repro.memo.kernels` -- the record kernel, the one scalar RTA
  fixed point every analysis runs: bit-identical to the reference
  analyses of :mod:`repro.rta` for the same hp enumeration order.
* :class:`~repro.memo.core.MemoRun` -- one strategy/analysis run on a
  memo: its own logical counter, the shared subproblem cache.
* :class:`~repro.memo.core.FragmentStore` -- the bounded, locked store
  of encoded fragments behind the memo's verdict fragments and the serve
  daemon's model task fragments.

Consumers:

* ``repro.search`` strategies run on a memo;
* the :mod:`repro.api` facade routes ``analyze()``/``assign()`` per-task
  evaluations through an optional ``memo=`` argument;
* the :mod:`repro.serve` daemon keeps one daemon-lifetime memo so a
  *near*-identical request (one WCET edit of a known model) recomputes
  only the tasks whose ``(task, hp-set)`` key is actually new;
* the codesign combination loop and the server-design budget scan pool
  their evaluation accounting through the same object.

Equivalence contract: an entry is evaluated with the caller's hp
*enumeration order* -- every consumer that enumerates in task-set order
(the facade, all strategies except the exhaustive permutation scan)
observes floats bit-identical to the scalar seed path, so memoised and
fresh analyses serialise to byte-identical canonical JSON.
"""

from repro.memo.core import (
    AnalysisMemo,
    EvaluationCounter,
    FragmentStore,
    MemoEntry,
    MemoRun,
)
from repro.memo.kernels import TaskRecord, evaluate_candidate, make_record

__all__ = [
    "AnalysisMemo",
    "EvaluationCounter",
    "FragmentStore",
    "MemoEntry",
    "MemoRun",
    "TaskRecord",
    "evaluate_candidate",
    "make_record",
]
