"""repro.cluster -- horizontally scaled serving for the analysis daemon.

Two ways to put more cores behind :mod:`repro.serve`:

* **Process-pool compute backend** (``repro serve --jobs N``): one
  daemon process keeps the HTTP front end, the coalescing
  :class:`~repro.serve.batcher.MicroBatcher`, and the shared
  content-addressed :class:`~repro.serve.store.ResultStore`; model
  batches are sliced across N long-lived worker processes, each owning
  its own :class:`~repro.memo.AnalysisMemo`.  A worker crash fails the
  affected items over to in-process computation -- accepted requests
  are never dropped -- and the pool is rebuilt.  The backend itself
  lives on the execution plane as :class:`repro.exec.PoolBackend`
  (shared by sweeps and batch facades).

* **SO_REUSEPORT sharded daemons**
  (:class:`~repro.cluster.shard.ShardManager`, ``repro serve
  --workers N``): N full daemon processes bind the *same* TCP port via
  ``SO_REUSEPORT`` (the kernel load-balances connections) and share one
  disk store through ``--cache-dir``.  The manager restarts crashed
  shards, and every shard can answer ``GET /v1/cluster/stats`` /
  ``/v1/cluster/metrics`` with counters aggregated across the whole
  cluster (:func:`~repro.cluster.aggregate.aggregate_stats`).

Both modes preserve the serving contract: responses are byte-identical
to direct façade calls at every worker count.

Exports resolve lazily (PEP 562) so importing the package does not
pull in the shard manager.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "ShardManager": "repro.cluster.shard",
    "ClusterError": "repro.cluster.shard",
    "aggregate_stats": "repro.cluster.aggregate",
    "cluster_metrics_text": "repro.cluster.aggregate",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
