"""``repro.obs`` -- telemetry, tracing, and anomaly detection.

The observability layer of the serving stack (ROADMAP item 5):

* :mod:`repro.obs.metrics` -- counters, gauges, bounded-memory
  streaming histograms, and the Prometheus-style text exposition behind
  ``GET /v1/metrics``;
* :mod:`repro.obs.tracing` -- per-request spans along the
  daemon -> batcher -> store -> facade -> memo hot path, surfaced via
  ``X-Repro-Trace-Id`` and a JSON-lines event log;
* :mod:`repro.obs.window` -- the rolling window of served analysis
  outcomes the detectors watch;
* :mod:`repro.obs.detectors` -- a fixed catalogue of pure, versioned
  anomaly detectors emitting canonical-JSON advisory findings
  (``POST /v1/detect``);
* :mod:`repro.obs.revalidate` -- replay of detector-flagged models
  through the Monte-Carlo validation harness;
* :mod:`repro.obs.core` -- :class:`Observability`, the per-daemon
  facade tying the pieces together;
* :mod:`repro.obs.logs` -- structured stderr logging for
  ``python -m repro serve``.

Instrumentation is always on and strictly out-of-band: response bodies
stay byte-identical to direct facade calls.
"""

from repro.obs.core import Observability
from repro.obs.detectors import (
    OBS_SCHEMA_VERSION,
    CacheEfficiencyDetector,
    Detector,
    Finding,
    LatencyRegressionDetector,
    NearBoundaryPileupDetector,
    VerdictDriftDetector,
    all_detectors,
    detect_report,
    detect_report_json,
    detector_catalogue,
    detector_names,
    get_detector,
)
from repro.obs.logs import configure_serve_logging, serve_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StreamingHistogram,
    default_registry,
    percentile,
    render_stats_gauges,
    sanitise_metric_name,
)
from repro.obs.revalidate import revalidate_flagged, revalidate_model
from repro.obs.tracing import EventLog, RequestTrace, next_trace_id, read_events
from repro.obs.window import (
    ReportWindow,
    summary_from_report_body,
    summary_from_report_dict,
)

__all__ = [
    "OBS_SCHEMA_VERSION",
    "CacheEfficiencyDetector",
    "Counter",
    "Detector",
    "EventLog",
    "Finding",
    "Gauge",
    "Histogram",
    "LatencyRegressionDetector",
    "MetricsRegistry",
    "NearBoundaryPileupDetector",
    "Observability",
    "ReportWindow",
    "RequestTrace",
    "StreamingHistogram",
    "VerdictDriftDetector",
    "all_detectors",
    "configure_serve_logging",
    "default_registry",
    "detect_report",
    "detect_report_json",
    "detector_catalogue",
    "detector_names",
    "get_detector",
    "next_trace_id",
    "percentile",
    "read_events",
    "render_stats_gauges",
    "revalidate_flagged",
    "revalidate_model",
    "sanitise_metric_name",
    "serve_logger",
    "summary_from_report_body",
    "summary_from_report_dict",
]
