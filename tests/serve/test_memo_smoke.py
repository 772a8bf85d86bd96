"""Smoke test of the daemon-lifetime analysis memo (CI fast lane).

The incremental-serving story end to end: a running daemon, one model,
one edited field.  The edited model misses the whole-model result store,
but its unchanged tasks replay from the shared
:class:`~repro.memo.AnalysisMemo` -- visible as ``x-repro-memo-hits`` on
the response and in ``GET /v1/stats`` -- while the response body stays
byte-identical to a direct façade call.
"""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.api import ControlTaskSystem, analyze
from repro.serve import (
    AnalysisDaemon,
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


def _edited(model, *, wcet: float):
    edited = copy.deepcopy(model)
    edited["tasks"][-1]["wcet"] = wcet
    return edited


def _run_daemon(**kwargs):
    daemon = AnalysisDaemon(port=0, batch_window=0.002, **kwargs)
    thread = run_daemon_in_thread(daemon)
    client = wait_until_ready(daemon.host, daemon.port)
    return daemon, thread, client


def _stop_daemon(thread, client):
    if thread.is_alive():
        try:
            client.shutdown()
        except ServeClientError:
            pass
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture()
def memo_daemon():
    daemon, thread, client = _run_daemon()
    yield daemon, client
    _stop_daemon(thread, client)


@pytest.fixture()
def memoless_daemon():
    daemon, thread, client = _run_daemon(memo_entries=0)
    yield daemon, client
    _stop_daemon(thread, client)


class TestMemoSmoke:
    def test_one_field_edit_hits_memo_and_stays_byte_identical(
        self, memo_daemon, example_model
    ):
        _, client = memo_daemon
        status, headers, _ = client.analyze_full(example_model)
        assert status == 200
        assert headers["x-repro-source"] == "computed"
        assert int(headers["x-repro-memo-recomputations"]) > 0

        edited = _edited(example_model, wcet=0.007)
        status, headers, body = client.analyze_full(edited)
        assert status == 200
        # The edit misses the whole-model store but replays the
        # unchanged tasks' subproblems from the daemon-lifetime memo.
        assert headers["x-repro-source"] == "computed"
        assert int(headers["x-repro-memo-hits"]) > 0
        direct = analyze(ControlTaskSystem.from_dict(edited))
        assert body.decode("utf-8") == direct.report_json()

    def test_stats_surface_memo_counters(self, memo_daemon, example_model):
        _, client = memo_daemon
        client.analyze(example_model)
        client.analyze(_edited(example_model, wcet=0.0075))
        memo = client.stats()["memo"]
        assert memo is not None
        assert memo["recomputations"] > 0
        assert memo["cache_hits"] > 0
        assert memo["interned_tasks"] > 0

    def test_store_hit_reports_source_store(self, memo_daemon, example_model):
        _, client = memo_daemon
        _, _, cold = client.analyze_full(example_model)
        status, headers, warm = client.analyze_full(example_model)
        assert status == 200
        assert headers["x-repro-source"] == "store"
        assert "x-repro-memo-hits" not in headers
        assert warm == cold

    def test_edited_stream_byte_identical_to_cold_facade(self, memo_daemon):
        """Near-identical traffic: every edit after the first replays
        tasks from the memo, and every body is a cold façade call's."""
        from repro.scenarios import edited_model_request_stream

        _, client = memo_daemon
        stream = edited_model_request_stream(8, seed=11)
        memo_hits = 0
        for system in stream:
            status, headers, body = client.analyze_full(system.to_dict())
            assert status == 200
            assert body.decode("utf-8") == analyze(system).report_json()
            memo_hits += int(headers.get("x-repro-memo-hits", 0))
        assert memo_hits > 0
        assert client.stats()["memo"]["cache_hits"] > 0

    def test_memo_disabled_serves_without_memo_metadata(
        self, memoless_daemon, example_model
    ):
        daemon, client = memoless_daemon
        assert daemon.memo is None
        status, headers, body = client.analyze_full(example_model)
        assert status == 200
        assert headers["x-repro-source"] == "computed"
        assert "x-repro-memo-hits" not in headers
        direct = analyze(ControlTaskSystem.from_dict(example_model))
        assert body.decode("utf-8") == direct.report_json()
        assert client.stats()["memo"] is None
