"""repro.serve -- the batched, cached analysis daemon over the façade.

The network front end the façade was built for: a long-lived process
serving :func:`repro.api.analyze` / :func:`repro.api.assign` to
concurrent clients, with mechanics that keep repeated work off the
hot path:

* **request coalescing + micro-batching**
  (:class:`~repro.serve.batcher.MicroBatcher`): requests arriving within
  a short window ride one dispatch; identical models in a batch compute
  once;
* a **content-addressed result store**
  (:class:`~repro.serve.store.ResultStore`) keyed by the model's
  ``canonical_sha256`` -- in-memory LRU plus an optional disk tier
  following the sweep chunk-cache conventions (atomic writes, corrupt
  entries degrade to recomputation).

Serving contract: a served response is **byte-identical** to the direct
in-process façade output for the same model (same versioned schema, same
``canonical_sha256``) -- pinned by the end-to-end tests and held at
every ``--jobs`` count.

One daemon process serves every request, and every model is computed
by :func:`repro.serve.daemon.compute_model`: in the dispatch thread on
the daemon's analysis memo, or, with ``--jobs N``, in contiguous slices
on a persistent process pool (:class:`repro.exec.PoolBackend`) whose
workers each own a memo.

Quickstart::

    python -m repro serve --port 8787 &
    python -m repro request examples/system.json
    curl -s -XPOST --data @examples/system.json \\
        http://127.0.0.1:8787/v1/analyze

In-process::

    from repro.serve import AnalysisDaemon, run_daemon_in_thread, wait_until_ready

    daemon = AnalysisDaemon(port=0)          # ephemeral port
    thread = run_daemon_in_thread(daemon)
    client = wait_until_ready(daemon.host, daemon.port)
    report = client.analyze(model_dict)
    client.shutdown(); thread.join()
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.client import ServeClient, ServeClientError, wait_until_ready
from repro.serve.daemon import AnalysisDaemon, run_daemon_in_thread
from repro.serve.store import ResultStore

__all__ = [
    "AnalysisDaemon",
    "MicroBatcher",
    "ResultStore",
    "ServeClient",
    "ServeClientError",
    "run_daemon_in_thread",
    "wait_until_ready",
]
