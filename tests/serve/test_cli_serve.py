"""CLI tests: ``python -m repro serve`` / ``python -m repro request``."""

from __future__ import annotations

import json
import os
import socket
import threading

import pytest

from repro.api import ControlTaskSystem, analyze
from repro.cli import main
from repro.obs.logs import serve_logger
from repro.serve import (
    AnalysisDaemon,
    run_daemon_in_thread,
    wait_until_ready,
)

EXAMPLE = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "system.json"
)


@pytest.fixture()
def daemon():
    daemon = AnalysisDaemon(port=0, batch_window=0.002)
    thread = run_daemon_in_thread(daemon)
    client = wait_until_ready(daemon.host, daemon.port)
    yield daemon
    client.shutdown()
    thread.join(timeout=10)


class TestRequestCommand:
    def test_analyze_round_trip(self, daemon, tmp_path, capsys):
        out = tmp_path / "response.json"
        rc = main(
            ["request", EXAMPLE, "--port", str(daemon.port), "--out", str(out)]
        )
        assert rc == 0
        with open(EXAMPLE) as handle:
            direct = analyze(ControlTaskSystem.from_dict(json.load(handle)))
        assert out.read_bytes() == direct.report_json().encode() + b"\n"
        # stdout carries the exact wire bytes (plus the newline).
        assert capsys.readouterr().out.strip() == direct.report_json()

    def test_assign_round_trip(self, daemon, capsys):
        rc = main(
            [
                "request",
                EXAMPLE,
                "--port",
                str(daemon.port),
                "--assign",
                "--algorithm",
                "audsley",
            ]
        )
        assert rc == 0
        response = json.loads(capsys.readouterr().out)
        assert response["algorithm"] == "audsley"
        assert response["ok"] is True

    def test_health_and_stats(self, daemon, capsys):
        assert main(["request", "--health", "--port", str(daemon.port)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"
        assert main(["request", "--stats", "--port", str(daemon.port)]) == 0
        assert "store" in json.loads(capsys.readouterr().out)

    def test_no_daemon_is_exit_2(self, capsys):
        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        rc = main(["request", EXAMPLE, "--port", str(port)])
        assert rc == 2
        assert "repro serve" in capsys.readouterr().err

    def test_model_required_without_control_flag(self, capsys):
        rc = main(["request"])
        assert rc == 2
        assert "model file" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_main_serves_and_shuts_down(self, capsys):
        logger = serve_logger()
        found = (list(logger.handlers), logger.level, logger.propagate)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        rcs = []
        thread = threading.Thread(
            target=lambda: rcs.append(
                main(["serve", "--port", str(port), "--batch-window", "0.002"])
            ),
            daemon=True,
        )
        thread.start()
        client = wait_until_ready("127.0.0.1", port)
        with open(EXAMPLE) as handle:
            model = json.load(handle)
        status, body = client.analyze_raw(model)
        assert status == 200
        assert json.loads(body)["stable"] is True
        assert main(["request", "--shutdown", "--port", str(port)]) == 0
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert rcs == [0]
        # The serve logger is back as found, not bound to this test's
        # captured stderr.
        assert (list(logger.handlers), logger.level, logger.propagate) == found


class TestScenarioRequest:
    def test_scenario_draw_round_trip(self, daemon, capsys):
        from repro.scenarios import scenario_run_json

        rc = main(
            [
                "request",
                "--scenario",
                "smoke_single_loop",
                "--instances",
                "2",
                "--seed",
                "11",
                "--port",
                str(daemon.port),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == scenario_run_json(
            "smoke_single_loop", instances=2, seed=11
        )
