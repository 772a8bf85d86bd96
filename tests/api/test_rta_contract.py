"""One RTA contract behind every analysis path.

The fresh façade pass, the memoised pass, the stacked population tier
and the serve daemon run one fixed-point contract, so their reports are
byte-identical by construction.  The models below sit where a path
without the contract's exits would part ways: a saturated hp set
(iterating it runs 10 000 steps into a ``ScheduleError``, an HTTP 422
from the daemon) and an hp task whose period is 10^9 x the response it
interferes with (a guarded ceiling that rounds its one job down to
zero reads a deadline miss as schedulable).
"""

from __future__ import annotations

import math

import pytest

from repro.api import ControlTaskSystem, analyze
from repro.memo import AnalysisMemo
from repro.rta.popbatch import (
    MIN_PROBLEM_POPULATION,
    analyze_population,
    analyze_taskset,
)
from repro.serve import (
    AnalysisDaemon,
    ServeClientError,
    run_daemon_in_thread,
    wait_until_ready,
)


def _model(name, tasks):
    return {
        "name": name,
        "tasks": [
            {"name": n, "period": p, "wcet": c, "priority": prio}
            for n, p, c, prio in tasks
        ],
    }


#: name -> (model, task, expected worst-case response time)
MODELS = {
    "saturated_hp": (
        _model(
            "saturated_hp",
            [("hog", 0.001, 0.001, 2), ("slow", 100.0, 0.0001, 1)],
        ),
        "slow",
        math.inf,
    ),
    "very_slow_hp_missed": (
        _model(
            "very_slow_hp_missed",
            [("huge", 1e6, 0.5, 2), ("fast", 0.4, 0.001, 1)],
        ),
        "fast",
        math.inf,
    ),
    "very_slow_hp_met": (
        _model(
            "very_slow_hp_met",
            [("huge", 1e6, 0.5, 2), ("fast", 1.0, 0.001, 1)],
        ),
        "fast",
        0.501,
    ),
}


@pytest.fixture(scope="module")
def daemon_client():
    """A default daemon (no disk store) on an ephemeral port."""
    daemon = AnalysisDaemon(port=0, batch_window=0.002)
    thread = run_daemon_in_thread(daemon)
    client = wait_until_ready(daemon.host, daemon.port)
    yield client
    if thread.is_alive():
        try:
            client.shutdown()
        except ServeClientError:
            pass
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize("key", sorted(MODELS))
class TestOneContract:
    def test_expected_worst_case(self, key):
        model, task, worst = MODELS[key]
        report = analyze(ControlTaskSystem.from_dict(model))
        assert report.task(task).times.worst == worst
        assert report.schedulable == math.isfinite(worst)

    def test_fresh_memo_and_population_agree(self, key):
        model, _, _ = MODELS[key]
        fresh = analyze(ControlTaskSystem.from_dict(model)).report_json()
        memoised = analyze(
            ControlTaskSystem.from_dict(model), memo=AnalysisMemo()
        ).report_json()
        assert memoised == fresh
        # Enough copies to put the population on the stacked kernels;
        # the one set alone runs the record kernel.
        taskset = ControlTaskSystem.from_dict(model).resolved_taskset()
        copies = MIN_PROBLEM_POPULATION
        population = analyze_population([taskset] * copies)
        assert population == [analyze_taskset(taskset)] * copies

    def test_served_body_equals_facade(self, key, daemon_client):
        model, _, _ = MODELS[key]
        status, body = daemon_client.analyze_raw(model)
        assert status == 200
        direct = analyze(ControlTaskSystem.from_dict(model))
        assert body.decode("utf-8") == direct.report_json()
