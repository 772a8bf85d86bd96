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
* ``POST /v1/detect`` -- run the anomaly-detector registry over the
  recent window of served analyses; optional Monte-Carlo revalidation
  of flagged models (:mod:`repro.obs.detectors` / ``.revalidate``).
  Advisory only.
* ``POST /v1/shutdown`` -- clean shutdown (responds, then exits).

Every response carries an ``X-Repro-Trace-Id`` header; with
observability enabled (the default) requests are traced per stage
(parse -> store lookup -> batch compute -> store fill) into the metrics
registry and, when configured, a JSON-lines event log.  Instrumentation
is zero-cost-when-disabled (``obs=False``) and strictly out-of-band:
response bodies stay byte-identical to direct façade calls either way.

Two mechanics keep the hot path on the batched kernels instead of paying
scalar cost per request:

1. **Coalescing + micro-batching** (:mod:`repro.serve.batcher`):
   requests arriving within ``--batch-window`` are grouped and pushed
   through ``analyze_batch``/``assign_batch`` as one call; identical
   models in a batch are computed once.
2. **Content-addressed store** (:mod:`repro.serve.store`): responses are
   cached under the model's ``canonical_sha256`` (in-memory LRU +
   optional disk tier under ``--cache-dir``), so repeated models are
   replayed without recomputation.
3. **Daemon-lifetime analysis memo** (:mod:`repro.memo`): on a
   whole-model store miss, per-task subproblems are routed through one
   shared :class:`~repro.memo.AnalysisMemo`, so a *near*-identical model
   (one WCET edit of an already-served 12-task system) recomputes only
   the tasks whose ``(task, hp-set)`` key is new -- roughly 1 of 12
   instead of all of them.  Response bodies stay byte-identical to the
   direct façade output (the memo's task-set-order contract); the
   incremental accounting is surfaced out-of-band in response headers
   (``X-Repro-Source``, ``X-Repro-Memo-Hits``,
   ``X-Repro-Memo-Recomputations``) and aggregated in ``GET /v1/stats``
   under ``"memo"``.  ``--memo-entries 0`` disables the layer; with
   ``--jobs > 1`` model batches go to the persistent worker pool
   (:class:`repro.exec.PoolBackend`) where each worker owns its own
   worker-lifetime memo instead.

CLI: ``python -m repro serve [--port --jobs --cache-dir ...]``; drive it
with ``python -m repro request <model.json>`` or plain ``curl``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.api.model import ControlTaskSystem
from repro.api.service import analyze, analyze_batch, assign, assign_batch
from repro.errors import ModelError
from repro.memo import AnalysisMemo
from repro.obs import Observability, detector_names
from repro.obs.logs import serve_logger
from repro.obs.revalidate import DEFAULT_HORIZON_PERIODS, revalidate_flagged
from repro.obs.window import summary_from_report_body
from repro.search.strategies import STRATEGIES
from repro.serve.batcher import MicroBatcher
from repro.serve.store import ResultStore
from repro.exec import resolve_jobs
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

#: Bodies above this parse + hash off-loop (asyncio.to_thread): a
#: multi-MB model would otherwise stall every concurrent handler for the
#: json.loads + canonical-dump duration.  Typical models are a few KB
#: and stay inline.
OFFLOAD_PARSE_BYTES = 256 * 1024


def _json_body(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class AnalysisDaemon:
    """One serving process: HTTP front end + batcher + result store."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        *,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        batch_window: float = 0.005,
        max_batch: int = 64,
        store_entries: int = 1024,
        read_timeout: float = 30.0,
        memo_entries: int = 65536,
        obs: bool = True,
        obs_window: int = 2048,
        event_log: Optional[str] = None,
        detect_interval: float = 0.0,
        detect_revalidate: bool = False,
        window_file: Optional[str] = None,
        detect_out: Optional[str] = None,
    ):
        self.host = host
        self.port = port
        self.jobs = resolve_jobs(jobs)
        self.cache_dir = cache_dir
        #: ``jobs > 1``: model batches go to the execution plane's
        #: long-lived :class:`~repro.exec.backends.PoolBackend` instead
        #: of per-batch ``analyze_batch(jobs=N)`` pools; each worker then
        #: owns its own worker-lifetime memo, so the daemon-level memo
        #: stays off.
        self.pool = None
        if self.jobs > 1:
            from repro.exec import PoolBackend

            self.pool = PoolBackend(self.jobs, memo_entries=memo_entries)
        #: Daemon-lifetime analysis memo: incremental recomputation for
        #: near-identical models.  ``memo_entries`` bounds the subproblem
        #: cache (LRU); ``0`` disables the layer.  Only consulted on the
        #: in-process (``jobs == 1``) path -- with a pool, the workers
        #: carry their own memos instead.
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
        #: Findings export (JSON-lines): each background detect run
        #: appends its canonical findings here -- the alerting pipeline
        #: tail-reads this file.
        self.detect_out = detect_out
        self.findings_exported = 0
        #: Budget for *receiving* a request (line + headers + body).  A
        #: client that connects and stalls is cut off instead of pinning
        #: a handler task and fd forever; computation time is unbounded
        #: by this (it starts after the body arrived).
        self.read_timeout = read_timeout
        self.store = ResultStore(max_entries=store_entries, cache_dir=cache_dir)
        self.batcher = MicroBatcher(
            self._dispatch, window=batch_window, max_batch=max_batch
        )
        #: Telemetry: per-daemon metric registry, rolling report window,
        #: tracing, optional JSON-lines event log (:mod:`repro.obs`).
        #: ``obs=False`` reduces every per-request hook to one ``if`` --
        #: response *bodies* are byte-identical either way.
        self.obs = Observability(
            enabled=obs, window_entries=obs_window, event_log_path=event_log
        )
        #: Background advisory detection cadence in seconds (0 = off):
        #: every interval the detector registry runs over the report
        #: window; findings go to the log/event log, never control flow.
        self.detect_interval = detect_interval
        self.detect_revalidate = detect_revalidate
        self._detect_task: Optional[asyncio.Task] = None
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
    ) -> List[Tuple[bool, str, Optional[Dict[str, Any]]]]:
        """Batched computation (runs on the batcher's worker thread).

        Returns ``(ok, body, meta)`` per payload -- ``meta`` carries the
        memo's per-request hit/recompute deltas (``None`` when the memo
        is off or not consulted).  With the memo active, model groups are
        computed per system through the shared
        :class:`~repro.memo.AnalysisMemo` (``analyze`` routes the whole
        per-task pass; ``assign`` routes only the *validation* analysis
        via ``validation_memo=``, because a warm search memo would change
        the outcome's canonical ``cache_hits`` field and break wire
        byte-identity with cold façade calls).  Without it, model groups
        ride ``analyze_batch``/``assign_batch`` whole; if any system
        poisons a batched call, fall back to per-system computation so
        one bad model cannot fail its batch-mates.  Scenario runs are
        computed per payload (each is already a whole population draw).
        """
        # Broad catches throughout: the isolation guarantee covers *any*
        # per-model failure (a NaN-period model dies in the numeric
        # kernels with a ValueError, not a ReproError), and an escaped
        # exception here would fail every coalesced batch-mate with 500.
        if group[0] == "scenarios":
            from repro.scenarios import scenario_run_json

            results: List[Tuple[bool, str, Optional[Dict[str, Any]]]] = []
            for name, instances, seed in payloads:
                try:
                    results.append(
                        (
                            True,
                            scenario_run_json(name, instances=instances, seed=seed),
                            None,
                        )
                    )
                except Exception as exc:  # noqa: BLE001
                    results.append((False, _json_body({"error": str(exc)}), None))
            return results
        systems = payloads
        if self.pool is not None:
            # Model batches ride the persistent worker pool; results come
            # back in submission order with the same (ok, body, meta)
            # shape (crash failover inside keeps per-item isolation).
            return self.pool.compute(group, systems)
        if self.memo is not None:
            return [self._compute_with_memo(group, system) for system in systems]
        try:
            if group[0] == "analyze":
                reports = analyze_batch(systems, jobs=self.jobs)
                if self.obs.enabled:
                    # Summaries ride the meta channel so the report
                    # window never re-parses response bodies.
                    return [
                        (True, r.report_json(), {"summary": r.summary()})
                        for r in reports
                    ]
                return [(True, r.report_json(), None) for r in reports]
            outcomes = assign_batch(systems, algorithm=group[1], jobs=self.jobs)
            return [(True, o.outcome_json(), None) for o in outcomes]
        except Exception:  # noqa: BLE001 -- isolate the poisoned model
            results = []
            for system in systems:
                try:
                    if group[0] == "analyze":
                        results.append((True, analyze(system).report_json(), None))
                    else:
                        results.append(
                            (
                                True,
                                assign(system, algorithm=group[1]).outcome_json(),
                                None,
                            )
                        )
                except Exception as exc:  # noqa: BLE001
                    results.append(
                        (False, _json_body({"error": str(exc)}), None)
                    )
            return results

    def _compute_with_memo(
        self, group: Tuple[str, ...], system: Any
    ) -> Tuple[bool, str, Optional[Dict[str, Any]]]:
        """One model through the daemon memo, with per-request deltas.

        The batcher's single dispatch thread is the memo's only writer,
        so the before/after ``stats()`` snapshots delimit exactly this
        request's evaluations.
        """
        before = self.memo.stats()
        summary: Optional[Dict[str, Any]] = None
        try:
            if group[0] == "analyze":
                report = analyze(system, memo=self.memo)
                body = report.report_json()
                if self.obs.enabled:
                    summary = report.summary()
            else:
                body = assign(
                    system, algorithm=group[1], validation_memo=self.memo
                ).outcome_json()
        except Exception as exc:  # noqa: BLE001 -- isolate the poisoned model
            return False, _json_body({"error": str(exc)}), None
        after = self.memo.stats()
        meta: Dict[str, Any] = {
            "memo_hits": after["cache_hits"] - before["cache_hits"],
            "memo_recomputations": (
                after["recomputations"] - before["recomputations"]
            ),
        }
        if summary is not None:
            meta["summary"] = summary
        return True, body, meta

    async def _compute(
        self,
        kind_group: Tuple[str, ...],
        sha: str,
        payload: Any,
        trace=None,
    ) -> Tuple[int, str, Dict[str, str]]:
        """Cache lookup -> coalesced batch submit -> cache fill.

        Returns ``(status, body, extra_headers)``.  The headers carry the
        out-of-band provenance (``X-Repro-Source: store|computed``) and,
        on memo-routed computations, the per-request incremental counts
        -- response *bodies* must stay byte-identical to direct façade
        output, so metadata never rides in them.  With observability on,
        each stage lands a span on ``trace`` and served analyze outcomes
        feed the detector window.

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
        if trace is not None:
            trace.add_span(
                "store_lookup",
                time.perf_counter() - started,
                outcome="hit" if cached is not None else "miss",
            )
        if cached is not None:
            self.responses_from_cache += 1
            if trace is not None:
                trace.annotate(source="store", sha=sha)
            if kind_group[0] == "analyze":
                self._record_served(
                    sha, cached, source="store",
                    started=started, trace=trace, meta=None,
                )
            return 200, cached, {"X-Repro-Source": "store"}
        submit_start = time.perf_counter()
        ok, body, meta = await self.batcher.submit(kind_group, sha, payload)
        if trace is not None:
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
            if trace is not None:
                trace.annotate(
                    memo_hits=meta["memo_hits"],
                    memo_recomputations=meta["memo_recomputations"],
                )
        if trace is not None:
            trace.annotate(source="computed", sha=sha)
        # Coalesced waiters all resolve with the same body; only the
        # first one past this check pays the store write.
        if not self.store.seen(store_kind, sha):
            fill_start = time.perf_counter()
            if self.cache_dir:
                await asyncio.to_thread(self.store.put, store_kind, sha, body)
            else:
                self.store.put(store_kind, sha, body)
            if trace is not None:
                trace.add_span(
                    "store_fill", time.perf_counter() - fill_start
                )
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
        trace,
        meta: Optional[Dict[str, Any]],
    ) -> None:
        """Feed one served analyze outcome to the detector window.

        Summaries come from the dispatch meta channel when the response
        was just computed; store replays reuse the sha-keyed summary
        cache and only fall back to parsing the body once per sha (the
        warm-disk-tier-after-restart case).
        """
        if not self.obs.enabled:
            return
        summary = (meta or {}).get("summary")
        if summary is None:
            summary = self.obs.window.summary_for(sha)
            if summary is None:
                summary = summary_from_report_body(body)
        if summary is not None:
            self.obs.window.remember_summary(sha, summary)
        self.obs.record_analysis(
            sha,
            summary,
            source=source,
            latency_seconds=time.perf_counter() - started,
            memo_hits=(meta or {}).get("memo_hits"),
            memo_recomputations=(meta or {}).get("memo_recomputations"),
            trace_id=None if trace is None else trace.trace_id,
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
                    method, target, request_body, trace=trace
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
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(
                400, _json_body({"error": f"malformed request line {request_line!r}"})
            )
        method, target, _ = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, _json_body({"error": "bad Content-Length"})) from None
        if length < 0 or length > MAX_BODY_BYTES:
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
        self, method: str, target: str, body: bytes, trace=None
    ) -> Tuple:
        """Route one request; ``(status, body[, extra_headers])``."""
        self.requests_total += 1

        split = urlsplit(target)
        path, query = split.path, parse_qs(split.query)

        if path == "/v1/health":
            if method != "GET":
                return 405, _json_body({"error": "use GET"})
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
        if path == "/v1/stats":
            if method != "GET":
                return 405, _json_body({"error": "use GET"})
            return 200, _json_body(self.stats())
        if path == "/v1/metrics":
            if method != "GET":
                return 405, _json_body({"error": "use GET"})
            # The daemon's counters ride along as flattened gauges; the
            # obs block is dropped from them because the registry already
            # exposes the same data as first-class instruments.
            stats = self.stats()
            stats.pop("obs", None)
            text = await asyncio.to_thread(self.obs.metrics_text, stats)
            return 200, text, {
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8"
            }
        if path == "/v1/detect":
            if method != "POST":
                return 405, _json_body({"error": "use POST"})
            return await self._detect_request(body)
        if path == "/v1/shutdown":
            if method != "POST":
                return 405, _json_body({"error": "use POST"})
            # Respond first, then trip the event: the connection is
            # written before serve_forever tears the server down.
            asyncio.get_running_loop().call_soon(self._shutdown.set)
            return 200, _json_body({"status": "shutting down"})
        if path == "/v1/analyze":
            if method != "POST":
                return 405, _json_body({"error": "use POST"})
            return await self._model_request(("analyze",), body, trace=trace)
        if path == "/v1/assign":
            if method != "POST":
                return 405, _json_body({"error": "use POST"})
            algorithm = query.get("algorithm", [None])[0]
            if algorithm is not None and algorithm not in STRATEGIES:
                return 400, _json_body(
                    {
                        "error": f"unknown algorithm {algorithm!r}",
                        "known": sorted(STRATEGIES),
                    }
                )
            return await self._model_request(
                ("assign", algorithm), body, trace=trace
            )
        if path == "/v1/scenarios":
            if method != "GET":
                return 405, _json_body({"error": "use GET"})
            from repro.scenarios import scenario_names

            return 200, _json_body({"scenarios": list(scenario_names())})
        if path == "/v1/scenarios/run":
            if method != "POST":
                return 405, _json_body({"error": "use POST"})
            return await self._scenario_request(body)
        return 404, _json_body(
            {
                "error": f"no route {method} {path}",
                "routes": [
                    "GET /v1/health",
                    "GET /v1/stats",
                    "GET /v1/metrics",
                    "GET /v1/scenarios",
                    "POST /v1/analyze",
                    "POST /v1/assign[?algorithm=...]",
                    "POST /v1/detect",
                    "POST /v1/scenarios/run",
                    "POST /v1/shutdown",
                ],
            }
        )

    async def _detect_request(self, body: bytes) -> Tuple:
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
            data = json.loads(body) if body.strip() else {}
        except json.JSONDecodeError as exc:
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
        except (TypeError, ValueError):
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

    # -- window persistence / findings export --------------------------------
    def _load_window(self) -> None:
        if not (self.window_file and self.obs.enabled):
            return
        restored = self.obs.window.load(self.window_file)
        self.window_restored = restored
        if restored:
            self.log.info(
                "report window restored",
                extra={"path": self.window_file, "records": restored},
            )

    def _save_window(self) -> None:
        if self._window_saved or not (self.window_file and self.obs.enabled):
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

    def _export_findings(self, findings: List[Dict[str, Any]]) -> None:
        """Append canonical findings to the JSON-lines export file."""
        from repro.sweep.result import canonical_dumps

        with open(self.detect_out, "a", encoding="utf-8") as handle:
            for finding in findings:
                handle.write(canonical_dumps(finding) + "\n")
        self.findings_exported += len(findings)

    @staticmethod
    def _parse_model(body: bytes) -> Tuple[ControlTaskSystem, str, Dict]:
        """Body bytes -> (system, content hash, raw dict); raises on bad input."""
        data = json.loads(body)
        if not isinstance(data, dict):
            raise ModelError("body must be a single system-model object")
        system = ControlTaskSystem.from_dict(data)
        return system, system.canonical_sha256(), data

    async def _model_request(
        self, kind_group: Tuple[str, ...], body: bytes, trace=None
    ) -> Tuple:
        parse_start = time.perf_counter()
        try:
            if len(body) > OFFLOAD_PARSE_BYTES:
                system, sha, raw = await asyncio.to_thread(
                    self._parse_model, body
                )
            else:
                system, sha, raw = self._parse_model(body)
        except json.JSONDecodeError as exc:
            self.errors += 1
            return 400, _json_body({"error": f"body is not valid JSON: {exc}"})
        except ModelError as exc:
            self.errors += 1
            return 400, _json_body({"error": str(exc)})
        if trace is not None:
            trace.add_span(
                "parse_model",
                time.perf_counter() - parse_start,
                bytes=len(body),
            )
        if self.obs.enabled and kind_group[0] == "analyze":
            # The raw request dict is exactly the model; remembering it
            # keyed by sha is what lets /v1/detect revalidate flagged
            # models later without re-serialising anything.
            self.obs.window.remember_model(sha, raw)
        return await self._compute(kind_group, sha, system, trace=trace)

    async def _scenario_request(self, body: bytes) -> Tuple:
        """``POST /v1/scenarios/run``: a seeded scenario population draw.

        Body: ``{"scenario": name, "instances": n, "seed": s}`` (seed
        optional).  The response is byte-identical to the in-process
        :func:`repro.scenarios.scenario_run_json`, and -- the draws being
        fully seed-determined -- content-addressable by the request
        itself.
        """
        import hashlib

        from repro.scenarios import scenario_names

        try:
            data = json.loads(body)
        except json.JSONDecodeError as exc:
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
        except (TypeError, ValueError):
            self.errors += 1
            return 400, _json_body({"error": "instances/seed must be integers"})
        if not (1 <= instances <= 4096):
            self.errors += 1
            return 400, _json_body(
                {"error": f"instances must be in [1, 4096], got {instances}"}
            )
        key = f"{name}:{instances}:{seed}"
        sha = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return await self._compute(("scenarios",), sha, (name, instances, seed))

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
        if self.detect_interval > 0 and self.obs.enabled:
            self._detect_task = asyncio.get_running_loop().create_task(
                self._detect_loop()
            )
        self.log.info(
            "daemon listening",
            extra={
                "host": self.host,
                "port": self.port,
                "jobs": self.jobs,
                "batch_window": self.batcher.window,
                "max_batch": self.batcher.max_batch,
                "cache_dir": self.cache_dir,
                "memo": self.memo is not None,
                "obs": self.obs.enabled,
                "detect_interval": self.detect_interval,
                "mode": self._mode(),
            },
        )
        self.started.set()

    async def _detect_loop(self) -> None:
        """Background advisory detection over the live report window.

        Every ``detect_interval`` seconds the full detector registry runs
        off-loop; findings are logged and appended to the event log (and,
        with ``detect_revalidate``, the flagged models are replayed
        through the Monte-Carlo harness).  Strictly advisory: failures
        are logged and the loop continues, serving is never touched.
        """
        while True:
            await asyncio.sleep(self.detect_interval)
            try:
                report = await asyncio.to_thread(self.obs.run_detectors)
                if report["n_findings"] and self.detect_out:
                    await asyncio.to_thread(
                        self._export_findings, report["findings"]
                    )
                if report["n_findings"] and self.detect_revalidate:
                    revalidation = await asyncio.to_thread(
                        revalidate_flagged,
                        report["findings"],
                        self.obs.window.model_for,
                    )
                    if self.obs.event_log is not None:
                        self.obs.event_log.emit(
                            "revalidation", {"report": revalidation}
                        )
                if report["n_findings"]:
                    self.log.warning(
                        "detector findings",
                        extra={
                            "n_findings": report["n_findings"],
                            "detectors": sorted(
                                {f["detector"] for f in report["findings"]}
                            ),
                        },
                    )
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 -- advisory, never fatal
                self.log.exception("background detection failed")

    async def serve_until_shutdown(self) -> None:
        if self._shutdown is None:
            raise RuntimeError("daemon not started; call start() first")
        await self._shutdown.wait()
        await self.aclose()

    async def aclose(self) -> None:
        if self._detect_task is not None:
            self._detect_task.cancel()
            try:
                await self._detect_task
            except asyncio.CancelledError:
                pass
            self._detect_task = None
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
            "detect_export": None
            if not self.detect_out
            else {
                "path": self.detect_out,
                "findings_exported": self.findings_exported,
            },
            "uptime_seconds": round(self.obs.uptime_seconds(), 3),
            "batcher": self.batcher.stats(),
            "store": self.store.stats(),
            # Daemon-lifetime analysis memo (None when --memo-entries 0):
            # cache_hits / recomputations count per-task subproblems, so
            # hit rate here is the *incremental-analysis* win on store
            # misses -- distinct from responses_from_cache, which counts
            # whole-model replays.
            "memo": None if self.memo is None else self.memo.stats(),
            # Observability: per-endpoint request/error counters,
            # in-flight gauge, latency percentiles, detector window
            # (repro.obs; "enabled": false when started with obs off).
            "obs": self.obs.stats(),
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
