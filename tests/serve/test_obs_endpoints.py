"""End-to-end tests of the daemon's observability surface.

Covers the tentpole wiring over real HTTP: ``GET /v1/metrics``,
``POST /v1/detect`` (with Monte-Carlo revalidation), the enriched
``GET /v1/stats``, the ``X-Repro-Trace-Id`` header, the JSON-lines
event log -- and the contract that none of it changes a single response
body byte.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api import ControlTaskSystem, analyze
from repro.obs import read_events
from repro.scenarios import drifting_request_stream
from repro.serve import (
    AnalysisDaemon,
    ServeClientError,
    run_daemon_in_thread,
    wait_until_ready,
)

pytestmark = pytest.mark.obs

EXAMPLE = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "system.json"
)


@pytest.fixture(scope="module")
def example_model():
    with open(EXAMPLE) as handle:
        return json.load(handle)


def start_daemon(**kwargs):
    daemon = AnalysisDaemon(port=0, batch_window=0.002, **kwargs)
    thread = run_daemon_in_thread(daemon)
    client = wait_until_ready(daemon.host, daemon.port)
    return daemon, thread, client


def stop_daemon(thread, client):
    if thread.is_alive():
        try:
            client.shutdown()
        except ServeClientError:
            pass
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture()
def daemon_client(tmp_path):
    daemon, thread, client = start_daemon(
        event_log=str(tmp_path / "events.jsonl")
    )
    yield daemon, client
    stop_daemon(thread, client)


class TestMetricsEndpoint:
    def test_exposition_well_formed(self, daemon_client, example_model):
        _, client = daemon_client
        client.analyze(example_model)
        status, headers, body = client.request_full("GET", "/v1/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert 'repro_requests_total{endpoint="/v1/analyze"} 1' in text
        assert "# TYPE repro_request_seconds summary" in text
        assert "repro_daemon_uptime_seconds" in text
        # Daemon /v1/stats counters ride along as one-shot gauges.
        assert "repro_stats_store_" in text
        # Every non-comment line is "<series> <value>".
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                assert name
                float(value)  # parses

    def test_client_metrics_helper(self, daemon_client):
        _, client = daemon_client
        assert "repro_requests_total" in client.metrics()


class TestTraceHeader:
    def test_trace_id_on_every_response(self, daemon_client, example_model):
        _, client = daemon_client
        _, first_headers, _ = client.request_full(
            "POST", "/v1/analyze", json.dumps(example_model).encode()
        )
        _, second_headers, _ = client.request_full("GET", "/v1/health")
        assert first_headers["x-repro-trace-id"]
        assert second_headers["x-repro-trace-id"]
        assert (
            first_headers["x-repro-trace-id"]
            != second_headers["x-repro-trace-id"]
        )


class TestStatsSurface:
    def test_uptime_and_obs_block(self, daemon_client, example_model):
        _, client = daemon_client
        client.analyze(example_model)
        stats = client.stats()
        assert stats["uptime_seconds"] >= 0
        obs = stats["obs"]
        assert obs["requests_by_endpoint"]["/v1/analyze"] == 1
        assert obs["in_flight"] >= 0
        assert obs["window"]["entries"] == 1
        assert obs["latency_seconds"]["/v1/analyze"]["count"] == 1

    def test_errors_counted(self, daemon_client):
        _, client = daemon_client
        status, _ = client.request_raw("POST", "/v1/analyze", b"not json")
        assert status == 400
        obs = client.stats()["obs"]
        assert obs["errors_by_endpoint"]["/v1/analyze"] == 1


class TestEventLog:
    def test_traces_written_per_request(
        self, daemon_client, example_model, tmp_path
    ):
        daemon, client = daemon_client
        client.analyze(example_model)
        client.health()
        kinds = [
            e["kind"] for e in read_events(daemon.obs.event_log.path)
        ]
        assert kinds.count("trace") >= 2
        trace_events = [
            e
            for e in read_events(daemon.obs.event_log.path)
            if e["kind"] == "trace" and e["endpoint"] == "/v1/analyze"
        ]
        stages = {s["stage"] for s in trace_events[0]["spans"]}
        assert "store_lookup" in stages
        assert "batch_compute" in stages


class TestDetectEndpoint:
    def test_empty_body_runs_full_registry(self, daemon_client):
        _, client = daemon_client
        status, headers, body = client.request_full(
            "POST", "/v1/detect", b""
        )
        assert status == 200
        assert headers["x-repro-advisory"] == "true"
        report = json.loads(body)
        assert report["advisory_only"] is True
        assert report["n_records"] == 0
        assert "canonical_sha256" in report

    def test_unknown_detector_rejected(self, daemon_client):
        _, client = daemon_client
        status, body = client.detect_raw({"detectors": ["nope"]})
        assert status == 400
        assert "unknown detector" in json.loads(body)["error"]

    def test_bad_window_rejected(self, daemon_client):
        _, client = daemon_client
        status, _ = client.detect_raw({"window": "many"})
        assert status == 400

    def test_detect_subset(self, daemon_client, example_model):
        _, client = daemon_client
        client.analyze(example_model)
        report = client.detect(detectors=["verdict_drift"], window=1)
        assert [d["name"] for d in report["detectors"]] == ["verdict_drift"]
        assert report["n_records"] == 1


class TestByteIdentity:
    def test_bodies_identical_with_obs_enabled(
        self, daemon_client, example_model
    ):
        _, client = daemon_client
        status, body = client.analyze_raw(example_model)
        assert status == 200
        direct = analyze(ControlTaskSystem.from_dict(example_model))
        assert body.decode("utf-8") == direct.report_json()


#: The registry minus ``latency_regression``, the one detector that
#: reads request latencies.
CLOCK_FREE_DETECTORS = ["verdict_drift", "near_boundary_pileup", "cache_efficiency"]


@pytest.mark.slow
class TestDriftEndToEnd:
    def test_seeded_drift_flagged_and_revalidated(self, tmp_path):
        daemon, thread, client = start_daemon(
            event_log=str(tmp_path / "events.jsonl")
        )
        try:
            stream = drifting_request_stream(20, n_tasks=5, seed=23)
            for system in stream:
                status, _ = client.analyze_raw(system.to_dict())
                assert status == 200
            # Only detectors that read no clock: latency_regression
            # judges each record's wall-clock latency, so on a loaded
            # host it can add a finding this seeded stream does not
            # plant.
            report = client.detect(
                detectors=CLOCK_FREE_DETECTORS,
                revalidate=True,
                horizon_periods=20,
                limit=2,
            )
            names = [f["detector"] for f in report["findings"]]
            assert names == ["verdict_drift"]
            finding = report["findings"][0]
            assert finding["flagged_shas"]
            assert finding["severity"] in ("warning", "critical")
            revalidation = report["revalidation"]
            assert revalidation["revalidated"] == 2
            assert revalidation["skipped_unknown_models"] == []
            # Drift is a precursor signal: the flagged models are thin
            # but analytically sound, so simulation confirms stability.
            assert revalidation["cells"] == {"stable_confirmed": 2}
            # The same window yields byte-identical canonical findings.
            second = client.detect(detectors=CLOCK_FREE_DETECTORS)
            for finding_again, finding_first in zip(
                second["findings"], report["findings"]
            ):
                assert finding_again == finding_first
        finally:
            stop_daemon(thread, client)
