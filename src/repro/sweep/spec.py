"""Declarative description of one parameter sweep.

A :class:`SweepSpec` is everything the executor needs to reproduce a sweep
bit-for-bit: a module-level worker function, the list of work items, the
shared parameters, and the seed.  Determinism is a *contract*, not an
accident: the worker derives all randomness from ``(seed, item)`` -- never
from the chunk index, the worker process, or wall clock -- so the same spec
yields the same records at any ``--jobs`` level and any chunk size.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ModelError

#: Worker signature: ``worker(item, params, seed) -> record`` where
#: ``record`` is a flat, JSON-serialisable dict.
SweepWorker = Callable[[Any, Dict[str, Any], int], Dict[str, Any]]

#: Chunk-worker signature: ``chunk_worker(items, params, seed) ->
#: [record, ...]`` -- one record per item, in item order.
SweepChunkWorker = Callable[
    [List[Any], Dict[str, Any], int], List[Dict[str, Any]]
]

#: Bound-key signature: ``bound_keys(items, params, seed) -> [key, ...]``
#: -- the stability-bound table keys (``repro.jittermargin.linearbound.
#: bound_key``) the worker will look up for these items.
SweepBoundKeys = Callable[[List[Any], Dict[str, Any], int], List[Tuple]]


def _stable_repr(value: Any) -> str:
    """Deterministic, content-sensitive form of a value for fingerprinting.

    Dicts are rendered with sorted keys so that insertion order does not
    change the fingerprint; primitives use ``repr``.  Arbitrary objects
    (task sets, plants, designs riding in ``params``) are hashed from
    their pickle -- their ``repr`` may omit content (``TaskSet`` prints
    only task names), and a fingerprint that misses content would let one
    sweep resume from another's cached chunks.
    """
    if isinstance(value, dict):
        inner = ", ".join(
            f"{key!r}: {_stable_repr(value[key])}" for key in sorted(value)
        )
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        inner = ", ".join(_stable_repr(v) for v in value)
        return f"({inner})" if isinstance(value, tuple) else f"[{inner}]"
    if value is None or isinstance(value, (str, int, float, bool, bytes)):
        return repr(value)
    try:
        digest = hashlib.sha256(
            pickle.dumps(value, protocol=4)
        ).hexdigest()[:16]
        return f"<{type(value).__qualname__}:{digest}>"
    except Exception:
        return repr(value)


@dataclass(frozen=True)
class SweepSpec:
    """One reproducible sweep: worker x items x params x seed.

    Attributes
    ----------
    name:
        Sweep identifier (used in artifact and cache file names).
    worker:
        Module-level callable ``(item, params, seed) -> dict``.  It must be
        importable by name (a requirement of process pools); lambdas and
        closures are rejected up front.
    items:
        The work items.  Items are handed to workers verbatim (pickled for
        process pools), so they may be any picklable value; dicts of
        primitives keep artifacts readable.
    params:
        Parameters shared by every item.
    seed:
        Root seed.  Workers must derive per-item generators from
        ``(seed, item)`` only.
    chunk_size:
        Items per executor chunk.  Part of the fingerprint because cached
        chunk files are chunk-aligned.
    volatile_keys:
        Record keys excluded from the canonical (deterministic) output --
        wall-clock timings and other measurements that legitimately differ
        between runs.
    version:
        Bump to invalidate cached chunks when worker semantics change.
    chunk_worker:
        Optional whole-chunk fast path: ``chunk_worker(items, params,
        seed)`` returns one record per item, in item order, **identical**
        to what per-item ``worker`` calls would return (that equivalence
        is the provider's contract -- it is what lets population kernels
        amortise setup across a chunk).  Deliberately *not* part of the
        fingerprint: like the job count, it may not change a single
        record, so cached chunks stay interchangeable with per-item runs.
    bound_keys:
        Optional module-level ``bound_keys(items, params, seed)``
        returning the list of stability-bound table keys the worker looks
        up for ``items``, without computing any bound.  On a multi-worker
        backend the executor draws them and computes the missing ones
        once, split across the workers, and ships them with every chunk,
        so no worker rebuilds the table.  Not part of the fingerprint
        either: a bound is a pure function of its key, so no record
        changes.
    """

    name: str
    worker: SweepWorker
    items: Tuple[Any, ...]
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    chunk_size: int = 32
    volatile_keys: Tuple[str, ...] = ()
    version: int = 1
    chunk_worker: Optional[SweepChunkWorker] = None
    bound_keys: Optional[SweepBoundKeys] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("sweep needs a non-empty name")
        if self.chunk_size < 1:
            raise ModelError(f"chunk_size must be >= 1, got {self.chunk_size}")
        workers = [self.worker]
        workers += [
            fn for fn in (self.chunk_worker, self.bound_keys) if fn is not None
        ]
        for worker in workers:
            qualname = getattr(worker, "__qualname__", "")
            module = getattr(worker, "__module__", "")
            if not module or "<lambda>" in qualname or "<locals>" in qualname:
                raise ModelError(
                    "sweep workers must be module-level functions (picklable "
                    f"by name); got {module}.{qualname or worker!r}"
                )
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "volatile_keys", tuple(self.volatile_keys))

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_chunks(self) -> int:
        return (self.n_items + self.chunk_size - 1) // self.chunk_size

    def chunks(self) -> Iterator[List[Tuple[int, Any]]]:
        """Yield chunks of ``(global_index, item)`` pairs, in order."""
        chunk: List[Tuple[int, Any]] = []
        for index, item in enumerate(self.items):
            chunk.append((index, item))
            if len(chunk) == self.chunk_size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk

    def fingerprint(self) -> str:
        """Hash identifying the sweep's deterministic inputs.

        Everything that changes the records (or their chunk alignment) is
        folded in; the job count is deliberately absent -- runs at any
        parallelism share one fingerprint, which is what makes the
        jobs-1-vs-jobs-N determinism test meaningful and lets a resumed
        run reuse chunks computed at a different ``--jobs``.
        """
        payload = "\n".join(
            [
                f"name={self.name}",
                f"version={self.version}",
                f"seed={self.seed}",
                f"chunk_size={self.chunk_size}",
                f"worker={self.worker.__module__}.{self.worker.__qualname__}",
                f"params={_stable_repr(self.params)}",
                f"items={_stable_repr(self.items)}",
            ]
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
