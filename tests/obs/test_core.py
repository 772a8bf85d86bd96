"""The :class:`Observability` facade: lifecycle hooks, window, detectors."""

from __future__ import annotations

import pytest

from repro.obs import Observability, read_events

pytestmark = pytest.mark.obs


def serve_one(obs, endpoint="/v1/analyze", status=200):
    trace = obs.request_started(endpoint)
    with trace.span("store_lookup", outcome="miss"):
        pass
    obs.request_finished(endpoint, status, trace)
    return trace


class TestEnabled:
    def test_request_lifecycle_feeds_instruments(self):
        obs = Observability()
        trace = serve_one(obs)
        assert trace is not None
        stats = obs.stats()
        assert stats["requests_by_endpoint"] == {"/v1/analyze": 1}
        assert stats["errors_by_endpoint"] == {}
        assert stats["in_flight"] == 0
        assert stats["latency_seconds"]["/v1/analyze"]["count"] == 1

    def test_errors_counted_separately(self):
        obs = Observability()
        serve_one(obs, status=400)
        stats = obs.stats()
        assert stats["errors_by_endpoint"] == {"/v1/analyze": 1}

    def test_trace_id_always_available(self):
        obs = Observability()
        trace = obs.request_started("/v1/analyze")
        assert obs.trace_id_for(trace) == trace.trace_id
        # A request that failed before routing still gets an id.
        assert obs.trace_id_for(None)

    def test_run_detectors_ticks_counters(self):
        obs = Observability()
        report = obs.run_detectors()
        assert report["n_records"] == 0
        assert report["n_findings"] == 0
        assert obs.registry.get("repro_detector_runs_total").value() == 1

    def test_run_detectors_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            Observability().run_detectors(detectors=["nope"])

    def test_metrics_text_well_formed(self):
        obs = Observability()
        serve_one(obs)
        text = obs.metrics_text({"store": {"hits": 1}})
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_daemon_uptime_seconds" in text
        assert "repro_stats_store_hits 1" in text
        for line in text.splitlines():
            assert line.startswith("#") or " " in line

    def test_event_log_receives_traces(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        obs = Observability(event_log_path=path)
        serve_one(obs)
        obs.close()
        events = read_events(path)
        assert [e["kind"] for e in events] == ["trace"]
        assert obs.stats()["event_log"]["events_written"] == 1

