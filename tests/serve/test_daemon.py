"""End-to-end tests of the analysis daemon over real HTTP.

The central assertion is the serving contract: response bodies are
**byte-identical** to the direct in-process façade output for the same
model -- same versioned schema, same ``canonical_sha256``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api import ControlTaskSystem, analyze
from repro.api.service import assign
from repro.serve import (
    AnalysisDaemon,
    ServeClient,
    ServeClientError,
    run_daemon_in_thread,
    wait_until_ready,
)

EXAMPLE = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "system.json"
)


@pytest.fixture(scope="module")
def example_model():
    with open(EXAMPLE) as handle:
        return json.load(handle)


@pytest.fixture()
def daemon_client(tmp_path):
    """A running daemon on an ephemeral port + a connected client."""
    daemon = AnalysisDaemon(
        port=0, batch_window=0.002, cache_dir=str(tmp_path)
    )
    thread = run_daemon_in_thread(daemon)
    client = wait_until_ready(daemon.host, daemon.port)
    yield daemon, client
    if thread.is_alive():
        try:
            client.shutdown()
        except ServeClientError:
            pass
        thread.join(timeout=10)
    assert not thread.is_alive()


class TestServingContract:
    def test_analyze_byte_identical_to_facade(self, daemon_client, example_model):
        _, client = daemon_client
        status, body = client.analyze_raw(example_model)
        assert status == 200
        direct = analyze(ControlTaskSystem.from_dict(example_model))
        assert body.decode("utf-8") == direct.report_json()
        served = json.loads(body)
        assert served["canonical_sha256"] == direct.canonical_sha256()

    def test_assign_byte_identical_to_facade(self, daemon_client, example_model):
        _, client = daemon_client
        status, body = client.assign_raw(example_model, algorithm="audsley")
        assert status == 200
        direct = assign(
            ControlTaskSystem.from_dict(example_model), algorithm="audsley"
        )
        assert body.decode("utf-8") == direct.outcome_json()

    def test_cached_response_stays_byte_identical(
        self, daemon_client, example_model
    ):
        daemon, client = daemon_client
        _, cold = client.analyze_raw(example_model)
        _, warm = client.analyze_raw(example_model)
        assert warm == cold
        assert daemon.responses_from_cache >= 1
        assert client.stats()["store"]["hits_memory"] >= 1

    def test_disk_tier_warm_start(self, tmp_path, example_model):
        """A daemon restarted on the same --cache-dir serves from disk."""
        expected = analyze(
            ControlTaskSystem.from_dict(example_model)
        ).report_json()
        for round_index in range(2):
            daemon = AnalysisDaemon(
                port=0, batch_window=0.0, cache_dir=str(tmp_path)
            )
            thread = run_daemon_in_thread(daemon)
            client = wait_until_ready(daemon.host, daemon.port)
            _, body = client.analyze_raw(example_model)
            assert body.decode("utf-8") == expected
            stats = client.stats()["store"]
            client.shutdown()
            thread.join(timeout=10)
            if round_index == 1:
                assert stats["hits_disk"] == 1


class TestControlPlane:
    def test_health(self, daemon_client):
        _, client = daemon_client
        health = client.health()
        assert health["status"] == "ok"
        assert health["schema_version"] == 1

    def test_stats_counters(self, daemon_client, example_model):
        _, client = daemon_client
        client.analyze(example_model)
        stats = client.stats()
        assert stats["requests_total"] >= 2  # health poll + analyze
        assert stats["batcher"]["requests"] >= 1

    def test_shutdown_is_clean(self, tmp_path, example_model):
        daemon = AnalysisDaemon(port=0, cache_dir=str(tmp_path))
        thread = run_daemon_in_thread(daemon)
        client = wait_until_ready(daemon.host, daemon.port)
        client.analyze(example_model)
        assert client.shutdown()["status"] == "shutting down"
        thread.join(timeout=10)
        assert not thread.is_alive()
        with pytest.raises(ServeClientError):
            client.health()


class TestErrorHandling:
    def test_invalid_json_is_400(self, daemon_client):
        _, client = daemon_client
        status, body = client.request_raw("POST", "/v1/analyze", b"{nope")
        assert status == 400
        assert "JSON" in json.loads(body)["error"]

    def test_malformed_model_is_400(self, daemon_client):
        _, client = daemon_client
        status, body = client.analyze_raw({"tasks": []})
        assert status == 400
        assert "tasks" in json.loads(body)["error"]

    def test_non_object_body_is_400(self, daemon_client):
        _, client = daemon_client
        status, _ = client.request_raw("POST", "/v1/analyze", b"[1, 2]")
        assert status == 400

    def test_unknown_algorithm_is_400(self, daemon_client, example_model):
        _, client = daemon_client
        status, body = client.assign_raw(example_model, algorithm="magic")
        assert status == 400
        assert "magic" in json.loads(body)["error"]

    def test_unanalysable_model_is_422_and_isolated(
        self, daemon_client, example_model
    ):
        """A poisoned model errors alone; batch-mates still succeed."""
        _, client = daemon_client
        # as_given without priorities resolves fine at model time but
        # fails analysis -- the per-request error path.
        bad = {
            "name": "poison",
            "tasks": [
                {"name": "a", "period": 1.0, "wcet": 0.1},
                {"name": "b", "period": 2.0, "wcet": 0.2},
            ],
        }
        status, body = client.analyze_raw(bad)
        assert status == 422
        assert "error" in json.loads(body)
        # The daemon still serves good models afterwards.
        status, _ = client.analyze_raw(example_model)
        assert status == 200

    def test_unknown_route_is_404(self, daemon_client):
        _, client = daemon_client
        status, body = client.request_raw("GET", "/nope")
        assert status == 404
        assert json.loads(body)["routes"] == [
            "GET /v1/health",
            "GET /v1/stats",
            "GET /v1/metrics",
            "GET /v1/scenarios",
            "POST /v1/analyze",
            "POST /v1/assign[?algorithm=...]",
            "POST /v1/detect",
            "POST /v1/scenarios/run",
            "POST /v1/shutdown",
        ]

    def test_wrong_method_is_405(self, daemon_client):
        _, client = daemon_client
        status, _ = client.request_raw("GET", "/v1/analyze")
        assert status == 405


class TestCoalescingOverHttp:
    def test_concurrent_identical_requests_coalesce(
        self, monkeypatch, example_model
    ):
        from concurrent.futures import ThreadPoolExecutor

        daemon = AnalysisDaemon(port=0, batch_window=0.05, cache_dir=None)
        # Every lookup misses, so every request reaches the batcher.
        monkeypatch.setattr(daemon.store, "get", lambda kind, sha: None)
        thread = run_daemon_in_thread(daemon)
        client = wait_until_ready(daemon.host, daemon.port)

        def one(_):
            return ServeClient(daemon.host, daemon.port).analyze_raw(
                example_model
            )

        with ThreadPoolExecutor(max_workers=6) as pool:
            responses = list(pool.map(one, range(6)))
        bodies = {body for _, body in responses}
        assert all(status == 200 for status, _ in responses)
        assert len(bodies) == 1  # all byte-identical
        stats = client.stats()["batcher"]
        assert stats["coalesced"] >= 1
        client.shutdown()
        thread.join(timeout=10)

    def test_distinct_models_batched_byte_identical(self):
        """Distinct models sent at once share ``analyze_batch`` calls
        (memo off, so the batched path runs) and every body is still the
        direct façade's."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.scenarios import scenario_request_pool

        systems = scenario_request_pool(unique=12, seed=21)
        daemon = AnalysisDaemon(port=0, batch_window=0.2, memo_entries=0)
        thread = run_daemon_in_thread(daemon)
        client = wait_until_ready(daemon.host, daemon.port)
        try:
            def one(system):
                return ServeClient(daemon.host, daemon.port).analyze_raw(
                    system.to_dict()
                )

            with ThreadPoolExecutor(max_workers=len(systems)) as pool:
                responses = list(pool.map(one, systems))
            for system, (status, body) in zip(systems, responses):
                assert status == 200
                assert body.decode("utf-8") == analyze(system).report_json()
            assert client.stats()["batcher"]["batches"] < len(systems)
        finally:
            client.shutdown()
            thread.join(timeout=10)
        assert not thread.is_alive()


class TestScenarioRoutes:
    def test_catalogue_listing(self, daemon_client):
        from repro.scenarios import scenario_names

        _, client = daemon_client
        assert client.scenarios()["scenarios"] == list(scenario_names())

    def test_run_byte_identical_to_facade(self, daemon_client):
        from repro.scenarios import scenario_run_json

        _, client = daemon_client
        status, body = client.scenarios_run_raw(
            "smoke_single_loop", instances=3, seed=11
        )
        assert status == 200
        assert body.decode("utf-8") == scenario_run_json(
            "smoke_single_loop", instances=3, seed=11
        )
        payload = json.loads(body)
        assert payload["scenario"] == "smoke_single_loop"
        assert len(payload["records"]) == 3

    def test_run_is_cached(self, daemon_client):
        daemon, client = daemon_client
        before = daemon.responses_from_cache
        _, cold = client.scenarios_run_raw("smoke_single_loop", instances=2)
        _, warm = client.scenarios_run_raw("smoke_single_loop", instances=2)
        assert warm == cold
        assert daemon.responses_from_cache == before + 1

    def test_unknown_scenario_is_400(self, daemon_client):
        _, client = daemon_client
        status, body = client.scenarios_run_raw("no_such_scenario")
        assert status == 400
        assert "known" in json.loads(body)

    def test_bad_instance_count_is_400(self, daemon_client):
        _, client = daemon_client
        status, _ = client.scenarios_run_raw("smoke_single_loop", instances=0)
        assert status == 400


class TestRequestRobustness:
    def test_nan_period_model_is_rejected_400(self, daemon_client):
        """json.loads accepts bare NaN; the schema boundary must reject
        it cleanly instead of letting it reach the numeric kernels
        (where it dies as an opaque ValueError) or produce a vacuous
        'stable' verdict."""
        _, client = daemon_client
        nan_model = json.loads(
            '{"name": "nan-period", "tasks": '
            '[{"name": "a", "period": NaN, "wcet": 0.1, "priority": 2},'
            ' {"name": "b", "period": 2.0, "wcet": 0.2, "priority": 1}]}'
        )
        status, body = client.analyze_raw(nan_model)
        assert status == 400
        assert "finite" in json.loads(body)["error"]
        assert client.health()["status"] == "ok"

    def test_non_repro_error_is_isolated_per_item(self, daemon_client):
        """The dispatch isolation guarantee covers *any* exception, not
        just ReproError: a payload that explodes with an AttributeError
        must yield one error result, not poison the whole batch."""
        daemon, _ = daemon_client
        good = ControlTaskSystem.from_dict(
            {
                "name": "good",
                "tasks": [
                    {"name": "t", "period": 1.0, "wcet": 0.1, "priority": 1}
                ],
            }
        )
        results = daemon._dispatch(("analyze",), [good, object()])
        assert results[0][0] is True
        assert json.loads(results[0][1])["stable"] is True
        assert results[1][0] is False
        assert "error" in json.loads(results[1][1])

    def test_stalled_client_is_timed_out(self, example_model):
        import socket
        import time

        daemon = AnalysisDaemon(port=0, read_timeout=0.2)
        thread = run_daemon_in_thread(daemon)
        client = wait_until_ready(daemon.host, daemon.port)
        start = time.monotonic()
        with socket.create_connection((daemon.host, daemon.port)) as stalled:
            stalled.sendall(b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 50\r\n\r\n")
            # ... and never send the body: the daemon must cut us off.
            response = stalled.recv(4096)
        assert time.monotonic() - start < 5.0
        assert b"408" in response.split(b"\r\n", 1)[0]
        # The daemon still serves normal traffic afterwards.
        status, _ = client.analyze_raw(example_model)
        assert status == 200
        client.shutdown()
        thread.join(timeout=10)

    def test_negative_content_length_is_400(self, daemon_client):
        import socket

        daemon, _ = daemon_client
        with socket.create_connection((daemon.host, daemon.port)) as raw:
            raw.sendall(
                b"POST /v1/analyze HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
            )
            response = raw.recv(4096)
        assert b" 400 " in response.split(b"\r\n", 1)[0]

    def test_coalesced_batch_writes_store_once(self, daemon_client, example_model):
        from concurrent.futures import ThreadPoolExecutor

        daemon, client = daemon_client
        client.analyze(example_model)  # populate
        puts_before = daemon.store.stats()["entries"]

        def one(_):
            return ServeClient(daemon.host, daemon.port).analyze_raw(example_model)

        with ThreadPoolExecutor(max_workers=4) as pool:
            assert all(s == 200 for s, _ in pool.map(one, range(4)))
        assert daemon.store.stats()["entries"] == puts_before


class TestTopology:
    def test_serial_topology_in_stats(self, daemon_client):
        _, client = daemon_client
        topology = client.stats()["topology"]
        assert topology["mode"] == "serial"
        assert topology["jobs"] == 1
        assert topology["pool"] is None

    def test_pooled_mode_byte_identical_through_daemon(
        self, tmp_path, example_model
    ):
        """--jobs 2 routes dispatch through the process pool; the served
        bytes must still match a direct façade call."""
        daemon = AnalysisDaemon(
            port=0, batch_window=0.002, jobs=2, cache_dir=str(tmp_path)
        )
        thread = run_daemon_in_thread(daemon)
        client = wait_until_ready(daemon.host, daemon.port)
        try:
            status, body = client.analyze_raw(example_model)
            assert status == 200
            direct = analyze(ControlTaskSystem.from_dict(example_model))
            assert body.decode("utf-8") == direct.report_json()
            status, body = client.assign_raw(
                example_model, algorithm="audsley"
            )
            assert status == 200
            assert body.decode("utf-8") == assign(
                ControlTaskSystem.from_dict(example_model),
                algorithm="audsley",
            ).outcome_json()
            topology = client.stats()["topology"]
            assert topology["mode"] == "pool"
            assert topology["jobs"] == 2
            assert topology["pool"]["workers"] == 2
            assert topology["pool"]["items"] >= 2
        finally:
            try:
                client.shutdown()
            except ServeClientError:
                pass
            thread.join(timeout=10)
