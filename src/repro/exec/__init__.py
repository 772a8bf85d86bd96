"""repro.exec -- the execution plane: one place to reason about concurrency.

Every parallel call site in the codebase -- the sweep chunk executor,
``analyze_batch``/``assign_batch``, scenario Monte-Carlo validation, the
search census suites, the experiment commands, and the serve daemon's
model batches under ``--jobs N`` -- describes its work as an
:class:`~repro.exec.plan.ExecutionPlan` and hands it to a backend:

* :class:`~repro.exec.backends.SerialBackend` -- in-process, with a
  backend-lifetime ambient :class:`~repro.memo.AnalysisMemo`;
* :class:`~repro.exec.backends.PoolBackend` -- a persistent process
  pool with eager pre-fork, worker-lifetime memos installed by the pool
  initializer, and crash containment with in-process failover + pool
  rebuild.

Shared guarantees, identical under every backend: results keyed and
returned in call order (canonical JSON byte-identity across ``--jobs``),
worker-lifetime memo reuse opt-in per call site, and uniform
``repro_exec_*`` metrics (call wall-time, crashes, failover,
memo hit rates).

``--jobs`` semantics live in :func:`~repro.exec.jobs.resolve_jobs`,
the single definition every layer re-exports.

Exports resolve lazily (PEP 562): the backends drag in
``concurrent.futures``/``multiprocessing``, a measurable slice of
interpreter start-up that serial CLI runs never need.
"""

from __future__ import annotations

import importlib

from repro.exec.jobs import ExecError, resolve_jobs
from repro.exec.plan import ExecutionPlan, TaskFailed
from repro.exec.workerenv import in_worker, initialize_worker, worker_memo

_EXPORTS = {
    "DEFAULT_MEMO_ENTRIES": "repro.exec.backends",
    "PoolBackend": "repro.exec.backends",
    "SerialBackend": "repro.exec.backends",
    "backend_for_jobs": "repro.exec.backends",
    "shutdown_default_backends": "repro.exec.backends",
    "single_thread_executor": "repro.exec.threads",
}

__all__ = sorted(
    set(_EXPORTS)
    | {
        "ExecError",
        "ExecutionPlan",
        "TaskFailed",
        "in_worker",
        "initialize_worker",
        "resolve_jobs",
        "worker_memo",
    }
)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
