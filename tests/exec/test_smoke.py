"""Fast-lane smoke: sweep + serve request through ``PoolBackend`` at
``--jobs 2``, byte-identical with serial (run as its own CI step).
"""

from __future__ import annotations

import pytest

from repro.api.service import analyze
from repro.exec import PoolBackend
from repro.scenarios.workload import scenario_request_pool
from repro.sweep import SweepSpec, run_sweep
from repro.sweep._testing import seeded_draw_worker

pytestmark = pytest.mark.sweep


def test_sweep_through_pool_matches_serial():
    spec = SweepSpec(
        name="smoke",
        worker=seeded_draw_worker,
        items=tuple({"index": i} for i in range(8)),
        seed=5,
        chunk_size=2,
    )
    serial = run_sweep(spec, jobs=1)
    backend = PoolBackend(2, memo_entries=4096)
    try:
        pooled = run_sweep(spec, backend=backend)
    finally:
        backend.close()
    assert pooled.canonical_json() == serial.canonical_json()


def test_serve_request_through_pool_matches_direct_facade():
    systems = scenario_request_pool(unique=3, seed=9)
    direct = [analyze(system).report_json() for system in systems]
    backend = PoolBackend(2, memo_entries=4096)
    try:
        served = backend.compute(("analyze",), systems)
    finally:
        backend.close()
    assert [body for ok, body, _ in served] == direct
    assert all(ok for ok, _, _ in served)
