"""Per-process execution-plane state: the worker-lifetime memo.

Pool workers call :func:`initialize_worker` once (as the process-pool
initializer); it installs a process-global :class:`~repro.memo.core.
AnalysisMemo` that survives across every task the worker ever runs --
the warm-memo speedup the daemon's pool pioneered, now available to any
plan.  The serial backend installs the same ambient state around its
in-process runs via :func:`ambient_memo`, so call sites consult one
function -- :func:`worker_memo` -- regardless of backend.

The memo is strictly opt-in at the call site: workers that need
byte-identity with the memo-less path (e.g. ``assign``'s canonical
``cache_hits`` counter) simply don't consult it, or route it to
validation only.
"""

from __future__ import annotations

import time
from typing import Any, Callable, NamedTuple, Tuple

#: Worker-lifetime memo, installed by :func:`initialize_worker` (pool
#: workers) or :func:`ambient_memo` (serial backend).  ``None`` means
#: "no ambient memo": call sites fall back to their memo-less path.
_WORKER_MEMO = None

#: True only in processes initialised as pool workers; lets test
#: workers distinguish "running in a pool worker" from "running
#: in-process" (e.g. to crash only the former).
_IN_WORKER = False


def initialize_worker(memo_entries: int = 65536) -> None:
    """Process-pool initializer: install the worker-lifetime memo.

    Runs once per worker process, before any task.  ``memo_entries``
    bounds the subproblem memo (LRU past the bound); ``0`` disables the
    ambient memo entirely -- workers then behave exactly like the old
    cold-start pools.
    """
    global _WORKER_MEMO, _IN_WORKER
    _IN_WORKER = True
    if memo_entries > 0:
        from repro.memo import AnalysisMemo

        _WORKER_MEMO = AnalysisMemo(max_entries=memo_entries)
    else:
        _WORKER_MEMO = None


def worker_memo():
    """The ambient worker-lifetime memo, or ``None`` outside the plane."""
    return _WORKER_MEMO


def in_worker() -> bool:
    """True when this process was initialised as a pool worker."""
    return _IN_WORKER


class ambient_memo:
    """Context manager installing ``memo`` as the ambient worker memo.

    Used by the serial backend so in-process plan runs see the same
    ambient state a pool worker would; restores the previous memo on
    exit (nesting-safe)."""

    def __init__(self, memo):
        self.memo = memo
        self._previous = None

    def __enter__(self):
        global _WORKER_MEMO
        self._previous = _WORKER_MEMO
        _WORKER_MEMO = self.memo
        return self.memo

    def __exit__(self, *exc_info):
        global _WORKER_MEMO
        _WORKER_MEMO = self._previous


class TaskOutcome(NamedTuple):
    """One executed plan call, with worker-side accounting.

    ``seconds`` is measured inside the executing process so pool
    scheduling and pickling latency stay out of the duration metric;
    the memo counters are deltas of the ambient memo's totals across
    the call (zero when no ambient memo is installed)."""

    seconds: float
    memo_hits: int
    memo_recomputations: int
    result: Any


def invoke(fn: Callable[..., Any], args: Tuple[Any, ...]) -> TaskOutcome:
    """Run one plan call in this process; module-level so pools can
    pickle it.  This is the single choke point every backend funnels
    calls through -- timing and memo accounting behave identically
    in-process and in pool workers."""
    memo = _WORKER_MEMO
    if memo is not None:
        before = memo.stats()
    start = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - start
    hits = recomputations = 0
    if memo is not None:
        after = memo.stats()
        hits = after["cache_hits"] - before["cache_hits"]
        recomputations = after["recomputations"] - before["recomputations"]
    return TaskOutcome(seconds, hits, recomputations, result)
