"""Table I: percentage of invalid solutions by Unsafe Quadratic.

Protocol (paper sec. V): generate benchmarks of n in {4, 8, 12, 16, 20}
control tasks (UUniFast utilisations, plants from the database), run the
monotonicity-trusting Unsafe Quadratic assignment on each, and validate
its output with the exact response-time interface.  The paper reports at
most 0.38 % invalid assignments (n = 4), decreasing with n -- the
experimental backbone of "anomalies occur extremely rarely".

The default benchmark count is CI-friendly; pass ``benchmarks=10000`` (or
use ``python -m repro table1 --benchmarks 10000``) for the paper-scale
run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Sequence

import numpy as np

from repro.api.service import analyze
from repro.assignment.unsafe_quadratic import assign_unsafe_quadratic
from repro.benchgen.taskgen import (
    BenchmarkConfig,
    generate_control_taskset,
    suite_bound_keys,
)
from repro.experiments.report import format_table
from repro.sweep import SweepResult, SweepSpec, run_sweep

#: Paper's Table I, for side-by-side rendering.
PAPER_TABLE1: Dict[int, float] = {4: 0.38, 8: 0.04, 12: 0.00, 16: 0.01, 20: 0.00}


@dataclass(frozen=True)
class Table1Result:
    """Invalid-solution percentages per task count."""

    benchmarks_per_count: int
    totals: Dict[int, int]
    invalid: Dict[int, int]

    def invalid_percent(self, n: int) -> float:
        total = self.totals.get(n, 0)
        return 100.0 * self.invalid.get(n, 0) / total if total else float("nan")

    def render(self) -> str:
        ns = sorted(self.totals)
        rows = [
            (
                n,
                self.totals[n],
                self.invalid[n],
                self.invalid_percent(n),
                PAPER_TABLE1.get(n, float("nan")),
            )
            for n in ns
        ]
        return format_table(
            ["n tasks", "benchmarks", "invalid", "invalid %", "paper %"],
            rows,
            title=(
                "Table I reproduction: invalid solutions of Unsafe Quadratic "
                "priority assignment"
            ),
        )


def _table1_worker(
    item: Dict[str, int], params: Dict[str, Any], seed: int
) -> Dict[str, Any]:
    """Generate one benchmark, run Unsafe Quadratic, validate exactly.

    Uses the same ``(seed, n, index)`` child-generator protocol as
    :func:`~repro.benchgen.taskgen.generate_benchmark_suite`; validation
    routes through the analysis façade (which runs the record kernel
    per task -- equivalence with the per-task validator is pinned by the
    ``rta`` and ``api`` tests).
    """
    n, index = item["n"], item["index"]
    rng = np.random.default_rng([seed, n, index])
    taskset = generate_control_taskset(n, rng, config=params.get("config"))
    result = assign_unsafe_quadratic(taskset)
    report = analyze(result.apply_to(taskset))
    return {
        "n": n,
        "index": index,
        "invalid": not report.stable,
        "claimed_valid": result.claims_valid,
        "evaluations": result.evaluations,
    }


def sweep_spec(
    *,
    task_counts: Sequence[int] = (4, 8, 12, 16, 20),
    benchmarks: int = 500,
    seed: int = 2017,
    config: Optional[BenchmarkConfig] = None,
    chunk_size: int = 64,
) -> SweepSpec:
    """Sweep description of the Table I experiment."""
    params: Dict[str, Any] = {}
    if config is not None:
        params["config"] = config
    return SweepSpec(
        name="table1",
        worker=_table1_worker,
        items=tuple(
            {"n": n, "index": index}
            for n in task_counts
            for index in range(benchmarks)
        ),
        params=params,
        seed=seed,
        chunk_size=chunk_size,
        bound_keys=suite_bound_keys,
    )


def reduce_records(records: Iterable[Dict[str, Any]]) -> Table1Result:
    """Aggregate per-benchmark validity records into a :class:`Table1Result`."""
    totals: Dict[int, int] = {}
    invalid: Dict[int, int] = {}
    for record in records:
        n = record["n"]
        totals[n] = totals.get(n, 0) + 1
        invalid[n] = invalid.get(n, 0) + int(record["invalid"])
    benchmarks_per_count = max(totals.values(), default=0)
    return Table1Result(
        benchmarks_per_count=benchmarks_per_count, totals=totals, invalid=invalid
    )


def from_sweep(result: SweepResult) -> Table1Result:
    """Rebuild the experiment result from a sweep artifact."""
    return reduce_records(result.records)


def run_table1(
    *,
    task_counts: Sequence[int] = (4, 8, 12, 16, 20),
    benchmarks: int = 500,
    seed: int = 2017,
    config: Optional[BenchmarkConfig] = None,
    jobs: int = 1,
) -> Table1Result:
    """Run the Table I experiment."""
    spec = sweep_spec(
        task_counts=task_counts, benchmarks=benchmarks, seed=seed, config=config
    )
    return from_sweep(run_sweep(spec, jobs=jobs))
