"""CLI tests: ``python -m repro serve`` / ``python -m repro request``."""

from __future__ import annotations

import argparse
import inspect
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

    def test_batch_round_trip(self, daemon, tmp_path, capsys):
        with open(EXAMPLE) as handle:
            model = json.load(handle)
        models = [dict(model, name="first"), dict(model, name="second")]
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps(models))
        out = tmp_path / "responses.json"
        rc = main(
            ["request", str(batch), "--port", str(daemon.port), "--out", str(out)]
        )
        assert rc == 0
        direct = [
            analyze(ControlTaskSystem.from_dict(m)).report_json() for m in models
        ]
        assert out.read_text() == "[\n" + ",\n".join(direct) + "\n]\n"
        assert capsys.readouterr().out.split() == direct

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


class TestServeSurface:
    def test_serve_flags(self):
        from repro.cli import _build_parser

        (commands,) = (
            action
            for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        flags = [
            action.option_strings[-1]
            for action in commands.choices["serve"]._actions
            if action.option_strings and action.dest != "help"
        ]
        assert flags == [
            "--host", "--port", "--cache-dir", "--batch-window",
            "--memo-entries", "--log-level", "--log-json", "--event-log",
            "--window-file", "--jobs",
        ]

    def test_daemon_keywords(self):
        keywords = list(inspect.signature(AnalysisDaemon).parameters)
        assert keywords == [
            "host", "port", "jobs", "cache_dir", "batch_window",
            "read_timeout", "memo_entries", "event_log", "window_file",
        ]


class TestObsDetectCommand:
    #: The detectors that read no clock (latency_regression judges
    #: wall-clock latencies, which a loaded host can make regress).
    CLOCK_FREE = ["cache_efficiency", "near_boundary_pileup", "verdict_drift"]

    def test_empty_window_exits_0(self, daemon, capsys):
        assert main(["obs", "detect", "--port", str(daemon.port)]) == 0
        assert json.loads(capsys.readouterr().out)["n_findings"] == 0

    def test_drift_findings_written_and_exit_1(self, daemon, tmp_path, capsys):
        from repro.scenarios import drifting_request_stream

        client = wait_until_ready(daemon.host, daemon.port)
        for system in drifting_request_stream(20, n_tasks=5, seed=23):
            status, _ = client.analyze_raw(system.to_dict())
            assert status == 200
        out = tmp_path / "findings.json"
        rc = main(
            ["obs", "detect", "--port", str(daemon.port), "--out", str(out),
             "--detectors", *self.CLOCK_FREE]
        )
        assert rc == 1
        report = json.loads(out.read_text())
        assert [f["detector"] for f in report["findings"]] == ["verdict_drift"]
        # The file holds exactly the printed canonical report.
        assert out.read_text() == capsys.readouterr().out


class TestScenarioRequest:
    def test_scenario_draw_round_trip(self, daemon, tmp_path, capsys):
        from repro.scenarios import scenario_run_json

        out = tmp_path / "draw.json"
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
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        expected = scenario_run_json("smoke_single_loop", instances=2, seed=11)
        assert capsys.readouterr().out.strip() == expected
        assert out.read_text() == expected + "\n"
