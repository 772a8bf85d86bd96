"""The analysis daemon: long-lived HTTP front end of :mod:`repro.api`.

A stdlib-only (``asyncio`` streams, no third-party framework) HTTP/1.1
server exposing the façade to concurrent clients:

* ``POST /v1/analyze``  -- system-model JSON in, the versioned
  :class:`~repro.api.AnalysisReport` schema out.  The response body is
  byte-identical to ``analyze(system).report_json()`` computed directly
  in-process -- same schema, same ``canonical_sha256``.
* ``POST /v1/assign[?algorithm=...]`` -- the assignment counterpart;
  byte-identical to ``assign(system, ...).outcome_json()``.
* ``GET /v1/scenarios`` / ``POST /v1/scenarios/run`` -- the catalogue
  listing and seeded population draws (``scenarios run`` as a service);
  byte-identical to :func:`repro.scenarios.scenario_run_json`.
* ``GET /v1/health`` / ``GET /v1/stats`` -- liveness + counters (stats
  includes uptime, per-endpoint request/error counters, the in-flight
  gauge, latency percentiles, and the detector window under ``"obs"``).
* ``GET /v1/metrics`` -- Prometheus-style text exposition
  (:mod:`repro.obs.metrics`).
* ``POST /v1/detect`` -- run the anomaly-detector catalogue over the
  recent window of served analyses; optional Monte-Carlo revalidation
  of flagged models (:mod:`repro.obs.detectors` / ``.revalidate``).
  Advisory only.
* ``POST /v1/shutdown`` -- clean shutdown (responds, then exits).

Every response carries an ``X-Repro-Trace-Id`` header, and every
request is traced per stage (parse -> store lookup -> batch compute ->
store fill) into the metrics registry and, when configured, a JSON-lines
event log.  Telemetry is strictly out-of-band: response bodies are
byte-identical to direct façade calls.

Three mechanics keep repeated work off the hot path:

1. **Coalescing + micro-batching** (:mod:`repro.serve.batcher`):
   requests queued while the dispatch thread is busy are grouped into
   one dispatch, and identical models in a batch are computed once.
   Under ``--jobs N`` the batcher also waits up to ``--batch-window``
   (default 5 ms) for batch-mates to split across the workers; at
   ``--jobs 1``, where a batch is computed model by model, the default
   window is 0 and a lone request is dispatched at once.
2. **Content-addressed store** (:mod:`repro.serve.store`): responses are
   cached under the model's ``canonical_sha256`` (in-memory LRU +
   optional disk tier under ``--cache-dir``), so repeated models are
   replayed without recomputation.
3. **Analysis memo** (:mod:`repro.memo`): on a whole-model store miss,
   per-task subproblems are routed through an
   :class:`~repro.memo.AnalysisMemo`, so a *near*-identical model (one
   WCET edit of an already-served 12-task system) recomputes only the
   tasks whose ``(task, hp-set)`` key is new.  The incremental
   accounting rides in response headers (``X-Repro-Source``,
   ``X-Repro-Memo-Hits``, ``X-Repro-Memo-Recomputations``) and, at
   ``--jobs 1``, in ``GET /v1/stats`` under ``"memo"``.
   ``--memo-entries 0`` means no memo at all.
4. **Model fragments**: the store key (the model's ``canonical_sha256``)
   is hashed from per-task encoded fragments kept in one bounded
   :class:`~repro.memo.FragmentStore` per daemon, so an edited model
   encodes only the tasks it changed (``GET /v1/stats`` under
   ``"model_fragments"``).

Every model is computed by one function, :func:`compute_model`.  At
``--jobs 1`` it runs in the batcher's dispatch thread on the daemon's
memo; with ``--jobs N`` a batch goes to the persistent worker pool
(:class:`repro.exec.PoolBackend`) as contiguous, order-preserving
slices, each worker computing on its own worker-lifetime memo.

CLI: ``python -m repro serve [--port --jobs --cache-dir ...]``; drive it
with ``python -m repro request <model.json>`` or plain ``curl``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.api.model import ControlTaskSystem
from repro.api.service import analyze, assign
from repro.api.wire import model_json
from repro.errors import ModelError
from repro.exec import ExecutionPlan, resolve_jobs, worker_memo
from repro.memo import AnalysisMemo, FragmentStore
from repro.obs import Observability, RequestTrace, detector_names
from repro.obs.logs import serve_logger
from repro.obs.revalidate import DEFAULT_HORIZON_PERIODS, revalidate_flagged
from repro.obs.window import summary_from_report_body
from repro.search.strategies import STRATEGIES
from repro.serve.batcher import MicroBatcher
from repro.serve.store import ResultStore
from repro.sweep.result import canonical_json_with_hash

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    """A malformed request, carrying the response to send back."""

    def __init__(self, status: int, body: str):
        super().__init__(body)
        self.status = status
        self.body = body

#: Upper bound on accepted request bodies (a 10k-task model is ~1 MB).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Default batch window under ``--jobs N``, where a batch is split
#: across the pool's workers; at ``--jobs 1`` the default is 0.
POOLED_BATCH_WINDOW = 0.005

#: Bodies above this parse + hash off-loop (asyncio.to_thread): a
#: multi-MB model would otherwise stall every concurrent handler for the
#: json.loads + canonical-dump duration.  Typical models are a few KB
#: and stay inline.
OFFLOAD_PARSE_BYTES = 256 * 1024

#: Encoded model task fragments each daemon keeps (LRU, a few MB): the
#: tasks of about a hundred 80-task models.
MODEL_FRAGMENT_ENTRIES = 8192


def _json_body(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request or header line; a 400 past the reader's line limit."""
    try:
        return await reader.readline()
    except ValueError:  # StreamReader's limit (64 KiB by default)
        raise _HttpError(
            400, _json_body({"error": "request or header line too long"})
        ) from None


def _load_json(body: bytes) -> Any:
    """A request body as JSON; any malformed body is a ``ValueError``.

    ``json.loads`` on bytes also raises ``UnicodeDecodeError`` (bad
    UTF-8), a plain ``ValueError`` (an integer past the digit limit) and
    ``RecursionError`` (nesting too deep) -- each one a bad request.
    """
    try:
        return json.loads(body)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


#: One computed response: ``(ok, body, meta)``.
Result = Tuple[bool, str, Optional[Dict[str, Any]]]


def compute_model(
    group: Tuple[str, ...], system: Any, memo: Optional[AnalysisMemo]
) -> Result:
    """One model through the façade; never raises.

    ``group`` is ``("analyze",)`` or ``("assign", algorithm)``.  ``meta``
    carries the report summary (analyze) and, when ``memo`` is given,
    this model's memo deltas.  ``memo`` has one writer at a time (the
    dispatch thread, or a pool worker), so its two counters read before
    and after delimit exactly this model's evaluations.  ``assign``
    routes only its validation analysis through the memo: a warm
    *search* memo would change the outcome's canonical ``cache_hits``
    and break byte identity with cold façade calls.

    Every body is one typed encoding pass (:mod:`repro.api.wire`).  An
    analyze body reuses the verdict fragments in ``memo``, so an edited
    model re-encodes only the verdicts that changed, and its summary is
    the rollup of that same pass.
    """
    if memo is not None:
        total = memo.total
        count, hits = total.count, total.hits
    meta: Dict[str, Any] = {}
    # Broad catch: isolation covers *any* per-model failure (a NaN-period
    # model dies in the numeric kernels with a ValueError, not a
    # ReproError), and an escaped exception would fail every batch-mate.
    try:
        if group[0] == "analyze":
            report = analyze(system, memo=memo)
            body = report.report_json(memo=memo)
            meta["summary"] = report.summary()
        else:
            body = assign(
                system, algorithm=group[1], validation_memo=memo
            ).outcome_json()
    except Exception as exc:  # noqa: BLE001 -- isolate the poisoned model
        return False, _json_body({"error": str(exc)}), None
    if memo is not None:
        meta["memo_hits"] = total.hits - hits
        meta["memo_recomputations"] = (
            total.count - count - meta["memo_hits"]
        )
    return True, body, meta or None


def _compute_slice(
    group: Tuple[str, ...], systems: List[Any]
) -> List[Result]:
    """One pool call: a contiguous slice on the worker's own memo."""
    memo = worker_memo()
    return [compute_model(group, system, memo) for system in systems]


def compute_models(
    group: Tuple[str, ...],
    systems: Sequence[Any],
    *,
    memo: Optional[AnalysisMemo] = None,
    pool=None,
) -> List[Result]:
    """A batch of models, results in order.

    Without ``pool``, in this thread on ``memo``.  With a
    :class:`~repro.exec.PoolBackend`, as one plan of contiguous slices,
    one per worker; a worker crash fails its slice over in-process.
    """
    if pool is None:
        return [compute_model(group, system, memo) for system in systems]
    parts = max(1, min(pool.workers, len(systems)))
    base, extra = divmod(len(systems), parts)
    slices, start = [], 0
    for k in range(parts):
        size = base + (1 if k < extra else 0)
        slices.append(list(systems[start : start + size]))
        start += size
    plan = ExecutionPlan(
        name="serve",
        fn=_compute_slice,
        calls=tuple((group, part) for part in slices),
        weights=tuple(len(part) for part in slices),
    )
    return [result for part in pool.run(plan) for result in part]


class AnalysisDaemon:
    """One serving process: HTTP front end + batcher + result store."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        *,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        batch_window: Optional[float] = None,
        read_timeout: float = 30.0,
        memo_entries: int = 65536,
        event_log: Optional[str] = None,
        window_file: Optional[str] = None,
    ):
        self.host = host
        self.port = port
        self.jobs = resolve_jobs(jobs)
        self.cache_dir = cache_dir
        #: ``jobs > 1``: model batches go to the execution plane's
        #: long-lived :class:`~repro.exec.backends.PoolBackend`, whose
        #: workers each own a worker-lifetime memo.
        self.pool = None
        if self.jobs > 1:
            from repro.exec import PoolBackend

            self.pool = PoolBackend(self.jobs, memo_entries=memo_entries)
        #: Daemon-lifetime analysis memo of the in-process (``jobs ==
        #: 1``) path: incremental recomputation for near-identical
        #: models.  ``memo_entries`` bounds the subproblem cache (LRU);
        #: ``0`` means no memo.
        self.memo: Optional[AnalysisMemo] = (
            AnalysisMemo(max_entries=memo_entries)
            if memo_entries > 0 and self.pool is None
            else None
        )
        #: Report-window snapshot file: reloaded on start, written on
        #: clean shutdown, so the detector window survives restarts.
        self.window_file = window_file
        self._window_saved = False
        self.window_restored = 0
        #: Budget for *receiving* a request (line + headers + body).  A
        #: client that connects and stalls is cut off instead of pinning
        #: a handler task and fd forever; computation time is unbounded
        #: by this (it starts after the body arrived).
        self.read_timeout = read_timeout
        # Fixed sizes, each its class's default: 1024 responses in the
        # store's memory tier, at most 64 requests per batch, and 2048
        # records in the report window.
        self.store = ResultStore(cache_dir=cache_dir)
        #: Encoded task fragments of parsed models, the parts every store
        #: key is hashed from.  The parse runs in this process at every
        #: ``--jobs``, so one store serves both topologies.
        self.model_fragments = FragmentStore(MODEL_FRAGMENT_ENTRIES)
        if batch_window is None:
            # At --jobs 1 a batch is computed model by model, so waiting
            # for batch-mates buys nothing; requests queued while the
            # dispatch thread is busy are still drained and coalesced.
            batch_window = 0.0 if self.pool is None else POOLED_BATCH_WINDOW
        self.batcher = MicroBatcher(self._dispatch, window=batch_window)
        #: Telemetry: per-daemon metric registry, rolling report window,
        #: tracing, optional JSON-lines event log (:mod:`repro.obs`).
        self.obs = Observability(event_log_path=event_log)
        self.log = serve_logger()
        self._server: Optional[asyncio.base_events.Server] = None
        # Created in start(), on the running loop (Python 3.9 binds
        # asyncio primitives to the construction-time loop).
        self._shutdown: Optional[asyncio.Event] = None
        #: Set once the socket is bound; ``port`` then holds the real port
        #: (relevant with ``port=0``).  Threading event so test/bench
        #: harnesses can run the daemon in a background thread.
        self.started = threading.Event()
        self.requests_total = 0
        self.responses_from_cache = 0
        self.errors = 0

    # -- computation ---------------------------------------------------------
    def _dispatch(
        self, group: Tuple[str, ...], payloads: List[Any]
    ) -> List[Result]:
        """Batched computation (runs on the batcher's worker thread).

        Returns ``(ok, body, meta)`` per payload.  Model groups go
        through :func:`compute_models`; scenario runs are computed per
        payload (each is already a whole population draw).
        """
        if group[0] != "scenarios":
            return compute_models(
                group, payloads, memo=self.memo, pool=self.pool
            )
        from repro.scenarios import scenario_run_json

        results: List[Result] = []
        for name, instances, seed in payloads:
            try:
                body = scenario_run_json(name, instances=instances, seed=seed)
            except Exception as exc:  # noqa: BLE001 -- isolate the bad draw
                results.append((False, _json_body({"error": str(exc)}), None))
            else:
                results.append((True, body, None))
        return results

    async def _compute(
        self,
        kind_group: Tuple[str, ...],
        sha: str,
        payload: Any,
        trace: RequestTrace,
    ) -> Tuple[int, str, Dict[str, str]]:
        """Cache lookup -> coalesced batch submit -> cache fill.

        Returns ``(status, body, extra_headers)``.  The headers carry the
        out-of-band provenance (``X-Repro-Source: store|computed``) and,
        on memo-routed computations, the per-request incremental counts
        -- response *bodies* must stay byte-identical to direct façade
        output, so metadata never rides in them.  Each stage lands a span
        on ``trace`` and served analyze outcomes feed the detector window.

        With a disk tier configured, store traffic runs off-loop
        (``asyncio.to_thread``): a slow or contended disk must never
        stall the accept/coalesce loop.  The pure-memory store is a dict
        lookup -- called inline.
        """
        store_kind = "-".join(part for part in kind_group if part)
        started = time.perf_counter()
        if self.cache_dir:
            cached = await asyncio.to_thread(self.store.get, store_kind, sha)
        else:
            cached = self.store.get(store_kind, sha)
        trace.add_span(
            "store_lookup",
            time.perf_counter() - started,
            outcome="hit" if cached is not None else "miss",
        )
        if cached is not None:
            self.responses_from_cache += 1
            trace.annotate(source="store", sha=sha)
            if kind_group[0] == "analyze":
                self._record_served(
                    sha, cached, source="store",
                    started=started, trace=trace, meta=None,
                )
            return 200, cached, {"X-Repro-Source": "store"}
        submit_start = time.perf_counter()
        ok, body, meta = await self.batcher.submit(kind_group, sha, payload)
        trace.add_span(
            "batch_compute", time.perf_counter() - submit_start, ok=ok
        )
        if not ok:
            self.errors += 1
            return 422, body, {}
        headers = {"X-Repro-Source": "computed"}
        if meta is not None and "memo_hits" in meta:
            headers["X-Repro-Memo-Hits"] = str(meta["memo_hits"])
            headers["X-Repro-Memo-Recomputations"] = str(
                meta["memo_recomputations"]
            )
            trace.annotate(
                memo_hits=meta["memo_hits"],
                memo_recomputations=meta["memo_recomputations"],
            )
        trace.annotate(source="computed", sha=sha)
        # Coalesced waiters all resolve with the same body; only the
        # first one past this check pays the store write.
        if not self.store.seen(store_kind, sha):
            fill_start = time.perf_counter()
            if self.cache_dir:
                await asyncio.to_thread(self.store.put, store_kind, sha, body)
            else:
                self.store.put(store_kind, sha, body)
            trace.add_span("store_fill", time.perf_counter() - fill_start)
        if kind_group[0] == "analyze":
            self._record_served(
                sha, body, source="computed",
                started=started, trace=trace, meta=meta,
            )
        return 200, body, headers

    def _record_served(
        self,
        sha: str,
        body: str,
        *,
        source: str,
        started: float,
        trace: RequestTrace,
        meta: Optional[Dict[str, Any]],
    ) -> None:
        """Feed one served analyze outcome to the detector window.

        Summaries come from the dispatch meta channel when the response
        was just computed; store replays reuse the sha-keyed summary
        cache and only fall back to parsing the body once per sha (the
        warm-disk-tier-after-restart case).
        """
        summary = (meta or {}).get("summary")
        if summary is None:
            summary = self.obs.window.summary_for(sha)
            if summary is None:
                summary = summary_from_report_body(body)
        if summary is not None:
            self.obs.window.remember_summary(sha, summary)
        self.obs.window.record(
            sha,
            summary,
            source=source,
            latency_seconds=time.perf_counter() - started,
            memo_hits=(meta or {}).get("memo_hits"),
            memo_recomputations=(meta or {}).get("memo_recomputations"),
            trace_id=trace.trace_id,
        )

    # -- HTTP plumbing -------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        extra_headers: Dict[str, str] = {}
        trace = None
        endpoint: Optional[str] = None
        method = "-"
        started = time.perf_counter()
        try:
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader), timeout=self.read_timeout
                )
            except asyncio.TimeoutError:
                self.errors += 1
                status, body = 408, _json_body(
                    {"error": f"request not received within {self.read_timeout} s"}
                )
            except _HttpError as exc:
                self.errors += 1
                status, body = exc.status, exc.body
            else:
                method, target, request_body = request
                endpoint = urlsplit(target).path
                trace = self.obs.request_started(endpoint)
                # Routes answer (status, body) or (status, body, headers)
                # -- the model/scenario paths attach provenance headers.
                result = await self._handle_request(
                    method, target, request_body, trace
                )
                if len(result) == 3:
                    status, body, extra_headers = result
                else:
                    status, body = result
        except Exception as exc:  # noqa: BLE001 -- never kill the server
            self.errors += 1
            status, body = 500, _json_body({"error": repr(exc)})
        # All response metadata rides in headers: the trace id always,
        # a Content-Type override only for non-JSON routes (/v1/metrics).
        trace_id = self.obs.trace_id_for(trace)
        extra_headers.setdefault("X-Repro-Trace-Id", trace_id)
        content_type = extra_headers.pop("Content-Type", "application/json")
        try:
            payload = body.encode("utf-8")
            header_block = "".join(
                f"{name}: {value}\r\n"
                for name, value in extra_headers.items()
            )
            writer.write(
                (
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"{header_block}"
                    "Connection: close\r\n\r\n"
                ).encode("ascii")
                + payload
            )
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away before reading; nothing to tell it
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if endpoint is not None:
            self.obs.request_finished(endpoint, status, trace)
            self.log.info(
                "request",
                extra={
                    "trace_id": trace_id,
                    "method": method,
                    "path": endpoint,
                    "status": status,
                    "seconds": round(time.perf_counter() - started, 6),
                },
            )

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        """Receive one request; raises :class:`_HttpError` on bad input."""
        request_line = (await _read_line(reader)).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(
                400, _json_body({"error": f"malformed request line {request_line!r}"})
            )
        method, target, _ = parts
        try:
            urlsplit(target)
        except ValueError as exc:
            raise _HttpError(
                400, _json_body({"error": f"malformed request target: {exc}"})
            ) from None
        headers: Dict[str, str] = {}
        while True:
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        # RFC 9110: 1*DIGIT, ASCII only -- int() would also take signs,
        # underscores and non-ASCII digits.
        if not (length_text.isascii() and length_text.isdigit()):
            raise _HttpError(400, _json_body({"error": "bad Content-Length"}))
        length = int(length_text)
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                400,
                _json_body(
                    {"error": f"Content-Length must be in [0, {MAX_BODY_BYTES}]"}
                ),
            )
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError as exc:
            raise _HttpError(
                400,
                _json_body(
                    {"error": f"body truncated ({len(exc.partial)}/{length} bytes)"}
                ),
            ) from None
        return method, target, body

    async def _handle_request(
        self, method: str, target: str, body: bytes, trace: RequestTrace
    ) -> Tuple:
        """Route one request through :data:`_ROUTES`.

        Every handler takes ``(body, query, trace)`` and answers
        ``(status, body[, extra_headers])``.
        """
        self.requests_total += 1
        split = urlsplit(target)
        route = _ROUTES.get(split.path)
        if route is None:
            return 404, _json_body(
                {
                    "error": f"no route {method} {split.path}",
                    "routes": [
                        f"{verb} {path}{hint}"
                        for path, (verb, _, hint) in _ROUTES.items()
                    ],
                }
            )
        verb, handler, _ = route
        if method != verb:
            return 405, _json_body({"error": f"use {verb}"})
        return await handler(self, body, parse_qs(split.query), trace)

    # -- routes --------------------------------------------------------------
    async def _get_health(self, body, query, trace) -> Tuple:
        from repro import __version__
        from repro.api.report import SCHEMA_VERSION

        return 200, _json_body(
            {
                "status": "ok",
                "version": __version__,
                "schema_version": SCHEMA_VERSION,
                "jobs": self.jobs,
                "mode": self._mode(),
            }
        )

    async def _get_stats(self, body, query, trace) -> Tuple:
        return 200, _json_body(self.stats())

    async def _get_metrics(self, body, query, trace) -> Tuple:
        # The daemon's counters ride along as flattened gauges; the obs
        # block is dropped from them because the registry already
        # exposes the same data as first-class instruments.
        stats = self.stats()
        stats.pop("obs", None)
        text = await asyncio.to_thread(self.obs.metrics_text, stats)
        return 200, text, {
            "Content-Type": "text/plain; version=0.0.4; charset=utf-8"
        }

    async def _get_scenarios(self, body, query, trace) -> Tuple:
        from repro.scenarios import scenario_names

        return 200, _json_body({"scenarios": list(scenario_names())})

    async def _post_analyze(self, body, query, trace) -> Tuple:
        return await self._model_request(("analyze",), body, trace)

    async def _post_assign(self, body, query, trace) -> Tuple:
        algorithm = query.get("algorithm", [None])[0]
        if algorithm is not None and algorithm not in STRATEGIES:
            return 400, _json_body(
                {
                    "error": f"unknown algorithm {algorithm!r}",
                    "known": sorted(STRATEGIES),
                }
            )
        return await self._model_request(("assign", algorithm), body, trace)

    async def _post_shutdown(self, body, query, trace) -> Tuple:
        # Respond first, then trip the event: the connection is written
        # before serve_forever tears the server down.
        asyncio.get_running_loop().call_soon(self._shutdown.set)
        return 200, _json_body({"status": "shutting down"})

    async def _post_detect(self, body, query, trace) -> Tuple:
        """``POST /v1/detect``: run detectors over the recent window.

        Body (optional, all keys optional): ``{"window": n_records,
        "detectors": [names], "revalidate": bool, "horizon_periods": n,
        "limit": n}``.  ``revalidate=true`` additionally replays the
        flagged models through the Monte-Carlo harness
        (:mod:`repro.obs.revalidate`).  The response is the canonical
        findings envelope (embedded ``canonical_sha256``) -- advisory
        only, serving behaviour never branches on it.
        """
        try:
            data = _load_json(body) if body.strip() else {}
        except ValueError as exc:
            self.errors += 1
            return 400, _json_body({"error": f"body is not valid JSON: {exc}"})
        if not isinstance(data, dict):
            self.errors += 1
            return 400, _json_body(
                {"error": "body must be a JSON object (or empty)"}
            )
        chosen = data.get("detectors")
        if chosen is not None:
            known = detector_names()
            if not isinstance(chosen, list) or not all(
                isinstance(name, str) for name in chosen
            ):
                self.errors += 1
                return 400, _json_body(
                    {
                        "error": "detectors must be a list of names",
                        "known": list(known),
                    }
                )
            unknown = [name for name in chosen if name not in known]
            if unknown:
                self.errors += 1
                return 400, _json_body(
                    {
                        "error": f"unknown detector {unknown[0]!r}",
                        "known": list(known),
                    }
                )
        try:
            last = data.get("window")
            last = int(last) if last is not None else None
            revalidate = bool(data.get("revalidate", False))
            horizon = int(
                data.get("horizon_periods", DEFAULT_HORIZON_PERIODS)
            )
            limit = int(data.get("limit", 8))
        except (TypeError, ValueError, OverflowError):
            self.errors += 1
            return 400, _json_body(
                {"error": "window/horizon_periods/limit must be integers"}
            )
        # Detection is pure CPU over a snapshot; revalidation simulates.
        # Both run off-loop so concurrent serving never stalls.
        payload = await asyncio.to_thread(
            self._run_detect, last, chosen, revalidate, horizon, limit
        )
        return 200, payload, {"X-Repro-Advisory": "true"}

    def _run_detect(
        self,
        last: Optional[int],
        detectors: Optional[List[str]],
        revalidate: bool,
        horizon_periods: int,
        limit: int,
    ) -> str:
        report = self.obs.run_detectors(last=last, detectors=detectors)
        if revalidate:
            report["revalidation"] = revalidate_flagged(
                report["findings"],
                self.obs.window.model_for,
                limit=limit,
                horizon_periods=horizon_periods,
            )
        json_with_hash, _ = canonical_json_with_hash(report)
        return json_with_hash

    def _mode(self) -> str:
        return "serial" if self.pool is None else "pool"

    # -- window persistence --------------------------------------------------
    def _load_window(self) -> None:
        if not self.window_file:
            return
        restored = self.obs.window.load(self.window_file)
        self.window_restored = restored
        if restored:
            self.log.info(
                "report window restored",
                extra={"path": self.window_file, "records": restored},
            )

    def _save_window(self) -> None:
        if self._window_saved or not self.window_file:
            return
        self._window_saved = True
        try:
            records = self.obs.window.save(self.window_file)
        except OSError:
            self.log.exception("report window snapshot failed")
            return
        self.log.info(
            "report window saved",
            extra={"path": self.window_file, "records": records},
        )

    def _parse_model(self, body: bytes) -> Tuple[ControlTaskSystem, str, Dict]:
        """Body bytes -> (system, content hash, raw dict); raises on bad input.

        The hash is ``system.canonical_sha256()``, written from this
        daemon's model fragments.
        """
        data = _load_json(body)
        if not isinstance(data, dict):
            raise ModelError("body must be a single system-model object")
        system = ControlTaskSystem.from_dict(data)
        text = model_json(system, fragments=self.model_fragments)
        return system, hashlib.sha256(text.encode("utf-8")).hexdigest(), data

    async def _model_request(
        self, kind_group: Tuple[str, ...], body: bytes, trace: RequestTrace
    ) -> Tuple:
        parse_start = time.perf_counter()
        try:
            if len(body) > OFFLOAD_PARSE_BYTES:
                system, sha, raw = await asyncio.to_thread(
                    self._parse_model, body
                )
            else:
                system, sha, raw = self._parse_model(body)
        except ModelError as exc:
            self.errors += 1
            return 400, _json_body({"error": str(exc)})
        except (ValueError, RecursionError) as exc:
            self.errors += 1
            return 400, _json_body({"error": f"body is not valid JSON: {exc}"})
        trace.add_span(
            "parse_model", time.perf_counter() - parse_start, bytes=len(body)
        )
        if kind_group[0] == "analyze":
            # The raw request dict is exactly the model; remembering it
            # keyed by sha is what lets /v1/detect revalidate flagged
            # models later without re-serialising anything.
            self.obs.window.remember_model(sha, raw)
        return await self._compute(kind_group, sha, system, trace)

    async def _post_scenarios_run(self, body, query, trace) -> Tuple:
        """``POST /v1/scenarios/run``: a seeded scenario population draw.

        Body: ``{"scenario": name, "instances": n, "seed": s}`` (seed
        optional).  The response is byte-identical to the in-process
        :func:`repro.scenarios.scenario_run_json`, and -- the draws being
        fully seed-determined -- content-addressable by the request
        itself.
        """
        from repro.scenarios import scenario_names

        try:
            data = _load_json(body)
        except ValueError as exc:
            self.errors += 1
            return 400, _json_body({"error": f"body is not valid JSON: {exc}"})
        if not isinstance(data, dict) or "scenario" not in data:
            self.errors += 1
            return 400, _json_body(
                {"error": "body must be {'scenario': name, 'instances': n, 'seed': s}"}
            )
        name = data["scenario"]
        if name not in scenario_names():
            self.errors += 1
            return 400, _json_body(
                {
                    "error": f"unknown scenario {name!r}",
                    "known": list(scenario_names()),
                }
            )
        try:
            instances = int(data.get("instances", 8))
            seed = int(data.get("seed", 7))
        except (TypeError, ValueError, OverflowError):
            self.errors += 1
            return 400, _json_body({"error": "instances/seed must be integers"})
        if not (1 <= instances <= 4096):
            self.errors += 1
            return 400, _json_body(
                {"error": f"instances must be in [1, 4096], got {instances}"}
            )
        key = f"{name}:{instances}:{seed}"
        sha = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return await self._compute(
            ("scenarios",), sha, (name, instances, seed), trace
        )

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start the batcher; sets :attr:`started`."""
        self._shutdown = asyncio.Event()
        self.batcher.start()
        self._load_window()
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.log.info(
            "daemon listening",
            extra={
                "host": self.host,
                "port": self.port,
                "jobs": self.jobs,
                "batch_window": self.batcher.window,
                "cache_dir": self.cache_dir,
                "memo": self.memo is not None,
                "mode": self._mode(),
            },
        )
        self.started.set()

    async def serve_until_shutdown(self) -> None:
        if self._shutdown is None:
            raise RuntimeError("daemon not started; call start() first")
        await self._shutdown.wait()
        await self.aclose()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            # Clean-shutdown line (idempotent aclose logs it only once).
            self.log.info(
                "daemon shut down",
                extra={
                    "requests_total": self.requests_total,
                    "errors": self.errors,
                    "uptime_seconds": round(self.obs.uptime_seconds(), 3),
                },
            )
        await self.batcher.close()
        if self.pool is not None:
            await asyncio.to_thread(self.pool.close)
        # Snapshot the report window before the registry closes: this is
        # the clean-shutdown path (the /v1/shutdown and SIGINT routes
        # both land here); a crash deliberately skips the save.
        self._save_window()
        self.obs.close()

    async def _main(self) -> None:
        await self.start()
        try:
            await self.serve_until_shutdown()
        finally:
            await self.aclose()

    def run(self) -> None:
        """Blocking entry point (the ``python -m repro serve`` body)."""
        try:
            asyncio.run(self._main())
        except KeyboardInterrupt:
            pass

    def stats(self) -> Dict[str, Any]:
        return {
            "requests_total": self.requests_total,
            "responses_from_cache": self.responses_from_cache,
            "errors": self.errors,
            "jobs": self.jobs,
            # Worker topology: how this daemon actually computes --
            # "serial" (in-process) or "pool" (process-pool backend).
            "topology": {
                "mode": self._mode(),
                "jobs": self.jobs,
                "pool": None if self.pool is None else self.pool.stats(),
            },
            "window_file": None
            if not self.window_file
            else {
                "path": self.window_file,
                "records_restored": self.window_restored,
            },
            "uptime_seconds": round(self.obs.uptime_seconds(), 3),
            "batcher": self.batcher.stats(),
            "store": self.store.stats(),
            # Daemon-lifetime analysis memo (None with --memo-entries 0
            # or a pool): cache_hits / recomputations count per-task
            # subproblems, so hit rate here is the *incremental-analysis*
            # win on store misses -- distinct from responses_from_cache,
            # which counts whole-model replays.
            "memo": None if self.memo is None else self.memo.stats(),
            # Encoded model task fragments behind the store keys (parsed
            # in this process at every topology).
            "model_fragments": self.model_fragments.stats(),
            # Observability: per-endpoint request/error counters,
            # in-flight gauge, latency percentiles, detector window.
            "obs": self.obs.stats(),
        }


#: The one route table: ``path -> (method, handler, query hint)``.  The
#: 404 body lists the routes in this order.
_ROUTES = {
    "/v1/health": ("GET", AnalysisDaemon._get_health, ""),
    "/v1/stats": ("GET", AnalysisDaemon._get_stats, ""),
    "/v1/metrics": ("GET", AnalysisDaemon._get_metrics, ""),
    "/v1/scenarios": ("GET", AnalysisDaemon._get_scenarios, ""),
    "/v1/analyze": ("POST", AnalysisDaemon._post_analyze, ""),
    "/v1/assign": ("POST", AnalysisDaemon._post_assign, "[?algorithm=...]"),
    "/v1/detect": ("POST", AnalysisDaemon._post_detect, ""),
    "/v1/scenarios/run": ("POST", AnalysisDaemon._post_scenarios_run, ""),
    "/v1/shutdown": ("POST", AnalysisDaemon._post_shutdown, ""),
}


def run_daemon_in_thread(daemon: AnalysisDaemon, timeout: float = 10.0):
    """Start ``daemon.run()`` on a background thread; wait until bound.

    The tests' harness entry point: returns the started
    ``threading.Thread`` (join it after posting ``/v1/shutdown``).
    Raises if the socket does not come up in time.
    """
    thread = threading.Thread(
        target=daemon.run, name="repro-serve-daemon", daemon=True
    )
    thread.start()
    if not daemon.started.wait(timeout):
        raise RuntimeError(f"daemon did not start within {timeout} s")
    return thread

