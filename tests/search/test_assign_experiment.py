"""The ``assign`` sweep experiment: determinism, reduction, skipping."""

from __future__ import annotations

import pytest

from repro.experiments.assign import (
    ALGORITHMS,
    from_sweep,
    run_assign,
    sweep_spec,
)
from repro.sweep import run_sweep


def test_small_run_reduces_and_renders():
    result = run_assign(task_counts=(3, 4), benchmarks=3)
    assert result.task_counts == (3, 4)
    rendered = result.render()
    for algorithm in ALGORITHMS:
        assert algorithm in rendered
    # The shared context makes the later suite members nearly free.
    bt = result.row("backtracking", 4)
    assert bt.instances == 3
    assert bt.mean_recomputations <= bt.mean_evaluations


def test_exhaustive_skipped_above_cap():
    spec = sweep_spec(
        task_counts=(3,), benchmarks=2, exhaustive_max_n=2
    )
    records = run_sweep(spec, jobs=1).records
    assert all(r["exhaustive_success"] is None for r in records)
    result = from_sweep(run_sweep(spec, jobs=1))
    assert result.row("exhaustive", 3).instances == 0


def test_logical_counts_match_cold_runs():
    """Suite records must report the paper's counts despite the memo."""
    import numpy as np

    from repro.benchgen.taskgen import generate_control_taskset
    from repro.search import run_strategy

    spec = sweep_spec(task_counts=(4,), benchmarks=2, seed=31)
    records = run_sweep(spec, jobs=1).records
    for record in records:
        rng = np.random.default_rng([31, 4, record["index"]])
        taskset = generate_control_taskset(4, rng)
        for algorithm in ("audsley", "unsafe_quadratic", "backtracking"):
            cold = run_strategy(algorithm, taskset)
            assert record[f"{algorithm}_evaluations"] == cold.evaluations
            assert record[f"{algorithm}_priorities"] == cold.priorities


@pytest.mark.sweep
def test_canonical_records_identical_across_jobs():
    spec = sweep_spec(task_counts=(3, 4), benchmarks=4)
    serial = run_sweep(spec, jobs=1)
    parallel = run_sweep(spec, jobs=2)
    assert serial.canonical_sha256() == parallel.canonical_sha256()
    # Assignments ride in the canonical records -- byte-identical too.
    assert [r["backtracking_priorities"] for r in serial.records] == [
        r["backtracking_priorities"] for r in parallel.records
    ]
