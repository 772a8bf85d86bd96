"""Chunked map-reduce execution of :class:`~repro.sweep.spec.SweepSpec`.

The execution model mirrors the alternating structure of the paper's
experiments (generate -> analyze -> aggregate): items are split into
chunks, each chunk becomes one call of an execution-plane
:class:`~repro.exec.plan.ExecutionPlan`, and the per-chunk record lists
are concatenated in chunk order -- so aggregation order, and therefore
the canonical output, is independent of completion order, job count,
and backend choice.

Dispatch is delegated to :mod:`repro.exec`: ``jobs=1`` (or a single
pending chunk) runs on the shared :class:`~repro.exec.backends.
SerialBackend`; ``jobs=N`` on the shared persistent
:class:`~repro.exec.backends.PoolBackend`, whose workers keep a
worker-lifetime analysis memo warm across chunks *and across sweeps* in
the same process, and whose crash containment recomputes lost chunks
in-process instead of failing the run.  The population-kernel tier gate
is resolved here, at plan construction, and forwarded as a plan env
override -- persistent workers forked before a tier toggle still honour
the caller's setting.

Bound table: a spec may declare the stability-bound keys its items look
up (``SweepSpec.bound_keys``).  On a multi-worker backend the executor
lists the pending chunks' keys and computes the missing bounds once, as
plans split across the workers, then ships every declared bound with
each chunk call -- otherwise each worker rebuilds the whole table.  The
artifact's volatile ``meta["bounds"]`` block records the step.

Cache/resume: with a ``cache_dir``, every computed chunk is written to
its own JSON file keyed by the spec fingerprint; a resumed run loads
matching chunk files instead of recomputing them, which turns a killed
10k-benchmark sweep into a warm restart.  Worker failures are propagated
as :class:`SweepError` naming the chunk and the original exception --
never swallowed, never partially aggregated.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.exec.jobs import ExecError, resolve_jobs
from repro.exec.plan import ExecutionPlan, TaskFailed
from repro.sweep.result import (
    SweepResult,
    atomic_write_text,
    decode_nonfinite,
    encode_nonfinite,
)
from repro.sweep.spec import SweepChunkWorker, SweepSpec, SweepWorker

__all__ = ["SweepError", "resolve_jobs", "run_sweep"]

#: Cache file schema version (independent of the artifact format).
_CACHE_FORMAT = 1


class SweepError(ExecError):
    """A sweep could not complete (worker failure or bad cache state).

    Subclasses :class:`~repro.exec.jobs.ExecError`: a sweep failure *is*
    an execution-plane failure, named in sweep vocabulary (sweep name
    and chunk index instead of plan name and call index).
    """


def _execute_chunk(
    worker: SweepWorker,
    chunk_index: int,
    indexed_items: List[Tuple[int, Any]],
    params: Dict[str, Any],
    seed: int,
    chunk_worker: Optional[SweepChunkWorker] = None,
) -> Tuple[float, List[Dict[str, Any]]]:
    """Run one chunk; module-level so process pools can pickle it.

    Returns ``(seconds, records)``: the wall time is measured inside the
    worker process, so pool scheduling and pickling latency stay out of
    the per-chunk duration metric.  A spec-provided ``chunk_worker``
    takes the whole item list at once (the population-kernel fast path);
    its record-per-item contract is checked the same way as the per-item
    worker's.
    """
    start = time.perf_counter()
    records: List[Dict[str, Any]] = []
    if chunk_worker is not None:
        chunk_records = chunk_worker(
            [item for _, item in indexed_items], params, seed
        )
        if len(chunk_records) != len(indexed_items):
            raise TypeError(
                f"sweep chunk worker {chunk_worker.__qualname__} returned "
                f"{len(chunk_records)} records for {len(indexed_items)} items"
            )
        produced = zip(
            (index for index, _ in indexed_items), chunk_records
        )
    else:
        produced = (
            (global_index, worker(item, params, seed))
            for global_index, item in indexed_items
        )
    for global_index, record in produced:
        if not isinstance(record, dict):
            raise TypeError(
                f"sweep worker {worker.__qualname__} returned "
                f"{type(record).__name__}, expected dict"
            )
        record = dict(record)
        record["i"] = global_index
        records.append(record)
    return time.perf_counter() - start, records


def _execute_chunk_with_bounds(
    bounds: Optional[Tuple[Tuple[Any, Any], ...]], *chunk_args: Any
) -> Tuple[float, List[Dict[str, Any]], int]:
    """Install the sweep's resolved bounds, then run one chunk.

    Returns ``(seconds, records, bound_misses)``: the misses are the
    bound-table lookups this chunk had to compute itself, counted in the
    executing process (zero when the resolution step covered every key).
    """
    from repro.jittermargin.linearbound import BOUND_TABLE

    if bounds:
        BOUND_TABLE.install(bounds)
    misses = BOUND_TABLE.cache_info().misses
    seconds, records = _execute_chunk(*chunk_args)
    return seconds, records, BOUND_TABLE.cache_info().misses - misses


def _run_split(backend, name: str, fn, values: List[Any], env, *extra: Any) -> List[Any]:
    """``fn(share, *extra)`` over one share of ``values`` per worker.

    Returns the shares' results in share order.  Shares interleave, so
    values of uneven cost in runs (bounds of one plant, items of one
    task count) spread evenly across the workers.
    """
    if not values:
        return []
    n = min(backend.workers, len(values))
    shares = [values[k::n] for k in range(n)]
    plan = ExecutionPlan(
        name=name,
        fn=fn,
        calls=tuple((share,) + extra for share in shares),
        weights=tuple(len(share) for share in shares),
        env=env,
    )
    return backend.run(plan)


#: ``meta["bounds"]`` when the step does not run: serial backend, a
#: single pending chunk, or a spec that declares no keys.
_NO_BOUNDS_STEP = {"declared": 0, "computed": 0, "seconds": 0.0, "workers": 0}


def _resolve_bounds(
    spec: SweepSpec,
    pending: List[Tuple[int, List[Tuple[int, Any]]]],
    backend,
    env: Tuple[Tuple[str, str], ...],
) -> Tuple[Optional[Tuple[Tuple[Any, Any], ...]], Dict[str, Any]]:
    """Compute the pending chunks' bound keys once, across the workers.

    Two plans split across the backend's workers: the first lists the
    declared keys of every pending item, the second computes the keys
    this process's table lacks, which are then installed here.  Returns
    ``(key, bound)`` for every declared key -- shipped with each chunk
    call, so neither a pool forked before this sweep nor one rebuilt
    after a crash recomputes a key -- and the ``meta["bounds"]`` block:
    keys ``declared``, keys ``computed`` (those this process lacked),
    ``seconds`` and ``workers``.
    """
    from repro.jittermargin.linearbound import BOUND_TABLE, compute_bounds

    start = time.perf_counter()
    items = [item for _, indexed_items in pending for _, item in indexed_items]
    try:
        keys = list(
            dict.fromkeys(
                key
                for share in _run_split(
                    backend, f"bound-keys-{spec.name}", spec.bound_keys, items,
                    env, spec.params, spec.seed,
                )
                for key in share
            )
        )
        resolved = BOUND_TABLE.held(keys)
        missing = [key for key in keys if key not in resolved]
        computed = [
            entry
            for share in _run_split(
                backend, f"bounds-{spec.name}", compute_bounds, missing, env
            )
            for entry in share
        ]
    except TaskFailed:
        # An item whose draw or bound fails here fails in its own chunk
        # too, which reports it under the chunk's index: leave every
        # lookup lazy.
        return None, dict(_NO_BOUNDS_STEP)
    BOUND_TABLE.install(computed)
    resolved.update(computed)
    return tuple((key, resolved[key]) for key in keys), {
        "declared": len(keys),
        "computed": len(computed),
        "seconds": time.perf_counter() - start,
        "workers": backend.workers,
    }


def _chunk_cache_path(
    cache_dir: str, name: str, fingerprint: str, chunk_index: int
) -> str:
    return os.path.join(
        cache_dir, f"{name}-{fingerprint}-chunk{chunk_index:05d}.json"
    )


def _load_cached_chunk(
    path: str, fingerprint: str, chunk_index: int
) -> Optional[List[Dict[str, Any]]]:
    """Load one chunk-cache file, or ``None`` to recompute.

    Resume semantics: *any* corruption -- a truncated file from a killed
    run, valid JSON of the wrong shape, a missing ``records`` list, a
    fingerprint or format mismatch -- silently falls back to recomputing
    the chunk.  A damaged cache can cost time, never correctness.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None  # truncated file from a killed run: recompute
    if (
        not isinstance(data, dict)
        or data.get("format") != _CACHE_FORMAT
        or data.get("fingerprint") != fingerprint
        or data.get("chunk") != chunk_index
    ):
        return None
    records = data.get("records")
    if not isinstance(records, list) or not all(
        isinstance(r, dict) for r in records
    ):
        return None
    return [decode_nonfinite(r) for r in records]


def _store_cached_chunk(
    path: str,
    fingerprint: str,
    chunk_index: int,
    records: List[Dict[str, Any]],
) -> None:
    payload = json.dumps(
        {
            "format": _CACHE_FORMAT,
            "fingerprint": fingerprint,
            "chunk": chunk_index,
            "records": encode_nonfinite(records),
        },
        allow_nan=False,
    )
    atomic_write_text(path, payload)


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    backend=None,
) -> SweepResult:
    """Execute the sweep and return the aggregated result.

    Parameters
    ----------
    jobs:
        ``1`` dispatches chunks on the shared serial backend (no pool,
        no pickling); ``N > 1`` on the shared persistent pool backend
        with ``N`` workers; ``0``, ``None`` or ``"auto"`` resolve to
        ``os.cpu_count()`` (see :func:`repro.exec.resolve_jobs`).  The
        records are identical at every level -- that is the engine's
        core guarantee, enforced by the determinism tests.
    cache_dir:
        Directory for per-chunk cache files.  Computed chunks are always
        stored when given; ``resume=True`` additionally *loads* chunks
        whose fingerprint matches instead of recomputing them.
    backend:
        Explicit execution backend (anything with the
        :meth:`~repro.exec.backends._Backend.run_iter` contract),
        overriding job-count selection.  Used by tests to pin a sweep
        to a specific pool instance (crash injection, byte-identity
        across backends).
    """
    jobs = resolve_jobs(jobs)
    fingerprint = spec.fingerprint()
    start = time.perf_counter()
    chunk_list = list(spec.chunks())
    chunk_records: Dict[int, List[Dict[str, Any]]] = {}
    cache_hits = 0

    pending: List[Tuple[int, List[Tuple[int, Any]]]] = []
    for chunk_index, indexed_items in enumerate(chunk_list):
        if cache_dir and resume:
            cached = _load_cached_chunk(
                _chunk_cache_path(cache_dir, spec.name, fingerprint, chunk_index),
                fingerprint,
                chunk_index,
            )
            if cached is not None:
                chunk_records[chunk_index] = cached
                cache_hits += 1
                continue
        pending.append((chunk_index, indexed_items))

    # Process-wide observability: per-chunk wall times (measured in the
    # worker) and a computed/cached split, scraped by ``/v1/metrics`` when
    # a sweep runs inside the daemon process.
    from repro.obs.metrics import default_registry

    registry = default_registry()
    chunk_seconds = registry.histogram(
        "repro_sweep_chunk_seconds",
        "Wall time of one sweep chunk, measured in the worker",
        labels=("sweep",),
    )
    chunks_total = registry.counter(
        "repro_sweep_chunks_total",
        "Sweep chunks finished, by outcome",
        labels=("sweep", "outcome"),
    )
    chunks_total.inc(cache_hits, sweep=spec.name, outcome="cached")

    def finish_chunk(
        chunk_index: int, seconds: float, records: List[Dict[str, Any]]
    ) -> None:
        chunk_records[chunk_index] = records
        chunk_seconds.observe(seconds, sweep=spec.name)
        chunks_total.inc(sweep=spec.name, outcome="computed")
        if cache_dir:
            _store_cached_chunk(
                _chunk_cache_path(cache_dir, spec.name, fingerprint, chunk_index),
                fingerprint,
                chunk_index,
                records,
            )

    # Tier gates are resolved *here*, at plan construction, and forwarded
    # as a plan env override: a persistent pool worker forked before the
    # caller toggled the population kernel still computes this sweep under
    # the caller's setting.
    from repro.tiers import POPULATION_KERNEL_ENV, resolve_population_flag

    env = (
        (
            POPULATION_KERNEL_ENV,
            "on" if resolve_population_flag(None) else "off",
        ),
    )

    if backend is None:
        # A single pending chunk gains nothing from a pool; keep the
        # historical serial fast path for it.
        from repro.exec.backends import backend_for_jobs

        backend = backend_for_jobs(
            1 if (jobs == 1 or len(pending) <= 1) else jobs
        )

    # On a pool, each worker would otherwise rebuild the whole bound
    # table; on one worker, lazy lookups compute the same keys without
    # an up-front draw.
    bounds, bounds_meta = None, dict(_NO_BOUNDS_STEP)
    if spec.bound_keys is not None and pending and getattr(backend, "workers", 1) > 1:
        bounds, bounds_meta = _resolve_bounds(spec, pending, backend, env)
    # Lookups the chunk calls computed themselves: 0 when the step ran.
    bounds_meta["chunk_misses"] = 0

    plan = ExecutionPlan(
        name=f"sweep-{spec.name}",
        fn=_execute_chunk_with_bounds,
        calls=tuple(
            (
                bounds,
                spec.worker,
                chunk_index,
                indexed_items,
                spec.params,
                spec.seed,
                spec.chunk_worker,
            )
            for chunk_index, indexed_items in pending
        ),
        weights=tuple(len(items) for _, items in pending),
        env=env,
    )

    try:
        # Finish (and cache) chunks as they complete, so a killed or
        # failing run leaves every completed chunk on disk for --resume.
        for position, outcome in backend.run_iter(plan):
            chunk_index = pending[position][0]
            seconds, records, bound_misses = outcome.result
            bounds_meta["chunk_misses"] += bound_misses
            finish_chunk(chunk_index, seconds, records)
    except TaskFailed as failure:
        chunk_index = pending[failure.index][0]
        cause = failure.__cause__
        raise SweepError(
            f"sweep {spec.name!r}: chunk {chunk_index} failed: {cause!r}"
        ) from cause

    records = [
        record
        for chunk_index in sorted(chunk_records)
        for record in chunk_records[chunk_index]
    ]
    elapsed = time.perf_counter() - start
    meta = {
        "jobs": jobs,
        "backend": backend.kind,
        "elapsed_seconds": elapsed,
        "n_items": spec.n_items,
        "n_chunks": len(chunk_list),
        "chunk_size": spec.chunk_size,
        "cache_hits": cache_hits,
        "bounds": bounds_meta,
    }
    try:
        json.dumps(spec.params)
    except (TypeError, ValueError):
        pass  # params with live objects (task sets, plants) stay out of meta
    else:
        meta["params"] = dict(spec.params)
    return SweepResult(
        name=spec.name,
        seed=spec.seed,
        fingerprint=fingerprint,
        records=records,
        volatile_keys=spec.volatile_keys,
        meta=meta,
    )
