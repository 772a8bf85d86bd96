"""Pluggable execution backends: serial in-process and persistent pool.

Both backends dispatch :class:`~repro.exec.plan.ExecutionPlan` calls
through the same worker shim (:func:`~repro.exec.workerenv.invoke`), so
timing and worker-lifetime memo accounting are identical wherever a
plan runs.  The pool backend adds eager pre-fork, a worker-lifetime
:class:`~repro.memo.AnalysisMemo` installed by the pool initializer,
and crash containment -- a worker dying mid-plan (OOM killer, segfault
in a native kernel) breaks the whole ``concurrent.futures`` pool, so
affected calls **fail over to in-process recomputation**, the pool is
rebuilt, and the event is counted (``worker_crashes``,
``failover_items``, ``pools_rebuilt`` -- per-backend counters and the
process-wide ``repro_exec_*`` instruments).

Result-time crash detection is deliberately narrow: only
``BrokenProcessPool`` triggers failover there, so a plan function that
legitimately raises ``OSError``/``RuntimeError`` surfaces as a
:class:`~repro.exec.plan.TaskFailed`, not a phantom crash.  The wider
``(BrokenProcessPool, OSError, RuntimeError)`` net applies only at
submission time, where the plan function has not run yet.

Process-wide default backends (:func:`backend_for_jobs`) are keyed by
worker count and memo bound and live until interpreter exit, so every
sweep, batch call, and validation run in a process shares the same warm
worker memos -- the execution-plane property this subsystem exists for.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.exec.jobs import ExecError, resolve_jobs
from repro.exec.metrics import ExecInstruments, instruments
from repro.exec.plan import ExecutionPlan, TaskFailed
from repro.exec.workerenv import (
    TaskOutcome,
    ambient_memo,
    initialize_worker,
    invoke,
)

#: Default bound on each worker-lifetime memo's subproblem cache.
DEFAULT_MEMO_ENTRIES = 65536


class _Backend:
    """Shared counters, metrics plumbing, and the ordered-run helper."""

    kind = "abstract"

    def __init__(self, *, memo_entries: int = DEFAULT_MEMO_ENTRIES):
        self.memo_entries = int(memo_entries)
        self.batches = 0
        self.items = 0
        self.memo_hits = 0
        self.memo_recomputations = 0
        self.worker_crashes = 0
        self.failover_items = 0
        self.pools_rebuilt = 0

    # -- dispatch ------------------------------------------------------------
    def run_iter(
        self, plan: ExecutionPlan
    ) -> Iterator[Tuple[int, TaskOutcome]]:
        raise NotImplementedError

    def run(self, plan: ExecutionPlan) -> List[Any]:
        """Execute the plan; results in call order (the determinism key)."""
        outcomes: Dict[int, Any] = {}
        for index, outcome in self.run_iter(plan):
            outcomes[index] = outcome.result
        return [outcomes[index] for index in range(plan.n_calls)]

    def close(self) -> None:
        pass

    # -- accounting ----------------------------------------------------------
    def _observe(
        self,
        plan: ExecutionPlan,
        ins: ExecInstruments,
        outcome: TaskOutcome,
        label: str = "computed",
    ) -> None:
        ins.task_seconds.observe(
            outcome.seconds, plan=plan.name, backend=self.kind
        )
        ins.tasks_total.inc(plan=plan.name, backend=self.kind, outcome=label)
        if outcome.memo_hits:
            self.memo_hits += outcome.memo_hits
            ins.memo_hits_total.inc(
                outcome.memo_hits, plan=plan.name, backend=self.kind
            )
        if outcome.memo_recomputations:
            self.memo_recomputations += outcome.memo_recomputations
            ins.memo_recomputations_total.inc(
                outcome.memo_recomputations, plan=plan.name, backend=self.kind
            )

    def stats(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "workers": getattr(self, "workers", 1),
            "alive_workers": 0,
            "memo_entries": self.memo_entries,
            "batches": self.batches,
            "items": self.items,
            "memo_hits": self.memo_hits,
            "memo_recomputations": self.memo_recomputations,
            "worker_crashes": self.worker_crashes,
            "failover_items": self.failover_items,
            "pools_rebuilt": self.pools_rebuilt,
        }


class SerialBackend(_Backend):
    """In-process dispatch with a backend-lifetime ambient memo.

    The single-worker analogue of a pool worker: the backend owns one
    :class:`~repro.memo.AnalysisMemo` installed as the ambient worker
    memo for the duration of each run, so serial sweeps and batch calls
    get the same warm-memo reuse (and the same opt-in semantics at call
    sites) as pool workers -- without pickling anything.
    """

    kind = "serial"
    workers = 1

    def __init__(self, *, memo_entries: int = DEFAULT_MEMO_ENTRIES):
        super().__init__(memo_entries=memo_entries)
        if self.memo_entries > 0:
            from repro.memo import AnalysisMemo

            self.memo = AnalysisMemo(max_entries=self.memo_entries)
        else:
            self.memo = None

    def run_iter(
        self, plan: ExecutionPlan
    ) -> Iterator[Tuple[int, TaskOutcome]]:
        self.batches += 1
        self.items += plan.n_items
        ins = instruments()
        with ambient_memo(self.memo):
            for index, args in enumerate(plan.calls):
                try:
                    outcome = invoke(plan.fn, args)
                except Exception as exc:
                    raise TaskFailed(plan, index, exc) from exc
                self._observe(plan, ins, outcome)
                yield index, outcome


class PoolBackend(_Backend):
    """Long-lived worker pool with warm memos and crash failover.

    ``run``/``run_iter`` dispatch plan calls one-per-future and yield
    outcomes as they complete (callers that cache incrementally -- the
    sweep executor -- persist finished work even if a later call
    fails).
    """

    kind = "pool"

    def __init__(
        self, workers=None, *, memo_entries: int = DEFAULT_MEMO_ENTRIES
    ):
        super().__init__(memo_entries=memo_entries)
        self.workers = resolve_jobs(workers)
        if self.workers < 1:
            raise ValueError(f"workers must resolve to >= 1, got {workers}")
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        # Crash logging reuses the daemon's structured logger: the pool
        # was born on the serving path and its operators watch that
        # stream; sweep crashes land there too, which is intentional.
        from repro.obs.logs import serve_logger

        self.log = serve_logger()
        # Spawn the workers *now*, while the constructing process is
        # still single-threaded: the default fork start method is only
        # safe before event-loop/dispatch threads exist, and an eagerly
        # warmed pool keeps the first plan off the cold-start path.
        self._warm()

    # -- pool lifecycle ------------------------------------------------------
    def _pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=initialize_worker,
                    initargs=(self.memo_entries,),
                )
            return self._executor

    def _warm(self) -> None:
        """Force every worker process to exist (and run its initializer)."""
        try:
            self._pool().submit(int, 0).result()
        except (BrokenProcessPool, OSError, RuntimeError):
            # Leave the lazy path to retry (and count) the failure.
            self._rebuild_pool()

    def _rebuild_pool(self) -> None:
        """Tear down a broken pool; the next plan builds a fresh one.

        The old workers are terminated first, as the executor itself does
        when it finds its pool broken: a worker killed while waiting for
        work can take the shared call queue's lock with it, and a
        survivor asked to exit cleanly would wait on that lock forever
        (and the interpreter's exit with it).
        """
        with self._lock:
            executor, self._executor = self._executor, None
            self.pools_rebuilt += 1
        instruments().pools_rebuilt_total.inc(backend=self.kind)
        if executor is not None:
            for process in list((executor._processes or {}).values()):
                process.terminate()
            executor.shutdown(wait=False)

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes (crash-injection tests)."""
        executor = self._pool()
        # Touch the pool so workers exist even before the first plan.
        executor.submit(int, 0).result()
        return sorted(pid for pid in (executor._processes or {}))

    def close(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    # -- dispatch ------------------------------------------------------------
    def run_iter(
        self, plan: ExecutionPlan
    ) -> Iterator[Tuple[int, TaskOutcome]]:
        self.batches += 1
        self.items += plan.n_items
        ins = instruments()
        futures: Dict[Any, int] = {}
        unsubmitted: List[int] = []
        crashed: Optional[BaseException] = None
        try:
            executor = self._pool()
            _check_workers(executor)
        except (BrokenProcessPool, OSError, RuntimeError) as exc:
            crashed = exc
            unsubmitted = list(range(plan.n_calls))
        else:
            for index, args in enumerate(plan.calls):
                try:
                    future = executor.submit(invoke, plan.fn, args)
                except (BrokenProcessPool, OSError, RuntimeError) as exc:
                    crashed = exc
                    unsubmitted = list(range(index, plan.n_calls))
                    break
                futures[future] = index
        try:
            for future in as_completed(futures):
                index = futures[future]
                try:
                    outcome = future.result()
                except BrokenProcessPool as exc:
                    crashed = exc
                    yield index, self._failover(plan, index, ins)
                    continue
                except Exception as exc:
                    raise TaskFailed(plan, index, exc) from exc
                self._observe(plan, ins, outcome)
                yield index, outcome
        except TaskFailed:
            for future in futures:
                future.cancel()
            raise
        for index in unsubmitted:
            yield index, self._failover(plan, index, ins)
        if crashed is not None:
            self._note_crash(crashed)

    def _failover(
        self, plan: ExecutionPlan, index: int, ins: ExecInstruments
    ) -> TaskOutcome:
        """Recompute one crashed call in-process; never drop accepted work."""
        weight = plan.weight(index)
        self.failover_items += weight
        ins.failover_items_total.inc(weight, plan=plan.name, backend=self.kind)
        try:
            outcome = invoke(plan.fn, plan.calls[index])
        except Exception as exc:
            raise TaskFailed(plan, index, exc) from exc
        self._observe(plan, ins, outcome, "failover")
        return outcome

    def _note_crash(self, exc: BaseException) -> None:
        self.worker_crashes += 1
        instruments().worker_crashes_total.inc(backend=self.kind)
        self.log.warning(
            "execution-plane pool worker crashed; failed over in-process",
            extra={
                "error": repr(exc),
                "worker_crashes": self.worker_crashes,
                "failover_items": self.failover_items,
            },
        )
        self._rebuild_pool()

    def stats(self) -> Dict[str, Any]:
        snapshot = super().stats()
        with self._lock:
            snapshot["alive_workers"] = (
                len(self._executor._processes or {})
                if self._executor is not None
                else 0
            )
        return snapshot


def _check_workers(executor: ProcessPoolExecutor) -> None:
    """Raise ``BrokenProcessPool`` if a worker of ``executor`` has exited.

    A worker that dies while the pool is idle need not have broken the
    executor by the next plan, and a plan its surviving workers finish
    alone would never count the crash.  So a plan that finds a dead
    worker treats the pool as broken, as it would on submission: every
    call fails over in-process, the crash is counted once, and the next
    plan gets a fresh pool.
    """
    for process in list((executor._processes or {}).values()):
        if process.exitcode is not None:
            raise BrokenProcessPool(
                f"pool worker {process.pid} exited with code "
                f"{process.exitcode} between plans"
            )


# -- process-wide default backends -------------------------------------------

_DEFAULT_BACKENDS: Dict[Tuple[Any, ...], _Backend] = {}
_DEFAULT_LOCK = threading.Lock()


def backend_for_jobs(jobs=1, *, memo_entries: Optional[int] = None) -> _Backend:
    """The process-wide shared backend for a job-count request.

    Backends are cached by (kind, workers, memo bound): every caller
    asking for the same shape shares one backend -- and therefore one
    set of warm worker memos -- for the life of the process.  ``jobs``
    resolving to 1 yields the serial backend; anything larger a
    persistent pool.
    """
    workers = resolve_jobs(jobs)
    entries = (
        DEFAULT_MEMO_ENTRIES if memo_entries is None else int(memo_entries)
    )
    key: Tuple[Any, ...]
    if workers == 1:
        key = ("serial", entries)
    else:
        key = ("pool", workers, entries)
    with _DEFAULT_LOCK:
        backend = _DEFAULT_BACKENDS.get(key)
        if backend is None:
            if workers == 1:
                backend = SerialBackend(memo_entries=entries)
            else:
                backend = PoolBackend(workers, memo_entries=entries)
            _DEFAULT_BACKENDS[key] = backend
        return backend


def shutdown_default_backends() -> None:
    """Close every cached default backend (atexit, and test teardown)."""
    with _DEFAULT_LOCK:
        backends = list(_DEFAULT_BACKENDS.values())
        _DEFAULT_BACKENDS.clear()
    for backend in backends:
        backend.close()


atexit.register(shutdown_default_backends)
