"""The per-daemon observability facade: metrics + traces + window in one.

:class:`Observability` is what the daemon actually holds: one object
owning the metric instruments, the rolling report window, and the
optional JSON-lines event log.  Telemetry is always on; it never
touches a response body.

Each daemon gets its *own* :class:`~repro.obs.metrics.MetricsRegistry`
so concurrent daemons in one process (tests, benches) never share
counters; the process-wide default registry (fed by cross-layer
instrumentation like the sweep executor) is appended to the exposition.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.detectors import all_detectors, detect_report, get_detector
from repro.obs.metrics import (
    MetricsRegistry,
    default_registry,
    render_stats_gauges,
)
from repro.obs.tracing import EventLog, RequestTrace, next_trace_id
from repro.obs.window import ReportWindow


class Observability:
    """Telemetry state of one serving daemon."""

    def __init__(self, *, event_log_path: Optional[str] = None):
        self.registry = MetricsRegistry()
        self.window = ReportWindow()
        self.event_log: Optional[EventLog] = (
            EventLog(event_log_path) if event_log_path else None
        )
        self.started_unix = time.time()
        self._requests = self.registry.counter(
            "repro_requests_total",
            "Requests served, by endpoint.",
            labels=("endpoint",),
        )
        self._errors = self.registry.counter(
            "repro_request_errors_total",
            "Non-2xx responses, by endpoint.",
            labels=("endpoint",),
        )
        self._in_flight = self.registry.gauge(
            "repro_in_flight_requests",
            "Requests currently being handled.",
        )
        self._latency = self.registry.histogram(
            "repro_request_seconds",
            "Request wall time from parse to response, by endpoint.",
            labels=("endpoint",),
        )
        self._stages = self.registry.histogram(
            "repro_stage_seconds",
            "Per-stage wall time along the serving hot path.",
            labels=("stage",),
        )
        self._detector_runs = self.registry.counter(
            "repro_detector_runs_total",
            "Detector executions via /v1/detect.",
        )
        self._detector_findings = self.registry.counter(
            "repro_detector_findings_total",
            "Findings emitted, by detector.",
            labels=("detector",),
        )

    # -- request lifecycle ---------------------------------------------------
    def request_started(self, endpoint: str) -> RequestTrace:
        """Open a request: in-flight gauge + trace."""
        self._in_flight.inc_key(())
        return RequestTrace(endpoint)

    def trace_id_for(self, trace: Optional[RequestTrace]) -> str:
        """The id to surface in ``X-Repro-Trace-Id``; a fresh one for a
        request that failed before routing (no trace)."""
        return trace.trace_id if trace is not None else next_trace_id()

    def request_finished(
        self, endpoint: str, status: int, trace: RequestTrace
    ) -> None:
        # Pre-resolved label keys throughout: this runs on every served
        # request, so skip the kwargs/label-schema machinery.
        key = (endpoint,)
        self._requests.inc_key(key)
        if status >= 400:
            self._errors.inc_key(key)
        self._in_flight.inc_key((), -1.0)
        trace.finish(status)
        self._latency.observe_key(key, trace.duration_seconds)
        for span in trace.spans:
            self._stages.observe_key((span["stage"],), span["seconds"])
        if self.event_log is not None:
            self.event_log.emit_trace(trace)

    # -- detectors -----------------------------------------------------------
    def run_detectors(
        self,
        *,
        last: Optional[int] = None,
        detectors: Optional[Sequence[str]] = None,
    ) -> Dict[str, Any]:
        """Detect over the current window; the canonical envelope dict."""
        chosen = (
            [get_detector(name) for name in detectors]
            if detectors is not None
            else list(all_detectors())
        )
        records = self.window.snapshot(last)
        report = detect_report(records, chosen)
        self._detector_runs.inc()
        for finding in report["findings"]:
            self._detector_findings.inc(detector=finding["detector"])
        if self.event_log is not None and report["findings"]:
            self.event_log.emit("findings", {"report": report})
        return report

    # -- exposition ----------------------------------------------------------
    def uptime_seconds(self) -> float:
        return time.time() - self.started_unix

    def metrics_text(
        self, daemon_stats: Optional[Mapping[str, Any]] = None
    ) -> str:
        """The full Prometheus exposition of this daemon.

        Own instruments first, then the daemon's ``/v1/stats`` counters
        flattened into one-shot gauges, then the process-wide default
        registry (sweep/memo cross-layer instrumentation).
        """
        uptime = self.registry.gauge(
            "repro_daemon_uptime_seconds", "Seconds since daemon start."
        )
        uptime.set(self.uptime_seconds())
        parts: List[str] = [self.registry.render()]
        if daemon_stats is not None:
            parts.append(render_stats_gauges(daemon_stats))
        shared = default_registry()
        if shared is not self.registry and shared.names():
            parts.append(shared.render())
        return "".join(part for part in parts if part)

    def stats(self) -> Dict[str, Any]:
        """The ``"obs"`` block of ``GET /v1/stats``."""
        by_endpoint = {
            key[0]: int(value)
            for key, value in sorted(self._requests.snapshot().items())
        }
        errors_by_endpoint = {
            key[0]: int(value)
            for key, value in sorted(self._errors.snapshot().items())
        }
        latency = {
            key[0]: summary
            for key, summary in sorted(self._latency.snapshot().items())
        }
        return {
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "requests_by_endpoint": by_endpoint,
            "errors_by_endpoint": errors_by_endpoint,
            "in_flight": int(self._in_flight.value()),
            "latency_seconds": latency,
            "window": self.window.stats(),
            "event_log": (
                None
                if self.event_log is None
                else {
                    "path": self.event_log.path,
                    "events_written": self.event_log.events_written,
                }
            ),
        }

    def close(self) -> None:
        if self.event_log is not None:
            self.event_log.close()
