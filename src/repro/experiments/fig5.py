"""Figure 5: execution time of Backtracking vs Unsafe Quadratic.

The paper times both priority-assignment algorithms over benchmark suites
with 4..20 tasks and shows that (a) both are fast in absolute terms (the
20-task design space is 20! ~ 2.4e18 orders, yet Algorithm 1 finishes in
under 2 s on their machine), and (b) the backtracking algorithm's *average*
cost tracks the quadratic baseline because anomalies -- the only trigger
for actual backtracking -- are rare.

Absolute times depend on the host (the paper used MATLAB-era C on a
3.6 GHz PC; we run pure Python), so the reproduction reports both
wall-clock times and the platform-independent count of stability-constraint
evaluations, whose growth should be ~ n^2 for both algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.assignment.backtracking import assign_backtracking
from repro.assignment.unsafe_quadratic import assign_unsafe_quadratic
from repro.benchgen.taskgen import (
    BenchmarkConfig,
    generate_control_taskset,
    suite_bound_keys,
)
from repro.experiments.report import format_table
from repro.sweep import SweepResult, SweepSpec, run_sweep


@dataclass(frozen=True)
class AlgorithmSeries:
    """Per-task-count statistics of one algorithm."""

    mean_seconds: Dict[int, float]
    max_seconds: Dict[int, float]
    mean_evaluations: Dict[int, float]
    max_evaluations: Dict[int, int]
    backtrack_runs: Dict[int, int]


@dataclass(frozen=True)
class Fig5Result:
    """Runtime comparison of the two assignment algorithms."""

    benchmarks_per_count: int
    task_counts: Sequence[int]
    unsafe: AlgorithmSeries
    backtracking: AlgorithmSeries

    def quadratic_fit_exponent(self, algorithm: str = "backtracking") -> float:
        """Log-log slope of mean evaluations vs n (2.0 = quadratic)."""
        series = self.backtracking if algorithm == "backtracking" else self.unsafe
        ns = sorted(series.mean_evaluations)
        xs = np.log([float(n) for n in ns])
        ys = np.log([max(series.mean_evaluations[n], 1e-12) for n in ns])
        slope, _ = np.polyfit(xs, ys, 1)
        return float(slope)

    def render(self) -> str:
        rows = []
        for n in self.task_counts:
            rows.append(
                (
                    n,
                    self.unsafe.mean_seconds[n] * 1e3,
                    self.backtracking.mean_seconds[n] * 1e3,
                    self.backtracking.max_seconds[n] * 1e3,
                    self.unsafe.mean_evaluations[n],
                    self.backtracking.mean_evaluations[n],
                    self.backtracking.backtrack_runs[n],
                )
            )
        table = format_table(
            [
                "n",
                "UQ mean (ms)",
                "BT mean (ms)",
                "BT max (ms)",
                "UQ evals",
                "BT evals",
                "runs w/ backtrack",
            ],
            rows,
            title=(
                "Figure 5 reproduction: runtime of Backtracking (Algorithm 1) "
                "vs Unsafe Quadratic"
            ),
        )
        footer = (
            f"\nlog-log growth of mean evaluations: "
            f"UQ {self.quadratic_fit_exponent('unsafe'):.2f}, "
            f"BT {self.quadratic_fit_exponent('backtracking'):.2f} "
            f"(2.0 = quadratic; 20! enumeration would be ~1e18 evaluations)"
        )
        return table + footer


def _fig5_worker(
    item: Dict[str, int], params: Dict[str, Any], seed: int
) -> Dict[str, Any]:
    """Time both assigners on one benchmark instance (sweep worker).

    Evaluation counts and backtracks are deterministic; the wall-clock
    samples are declared volatile in the spec so the canonical sweep
    output stays identical across runs and job counts.
    """
    n, index = item["n"], item["index"]
    rng = np.random.default_rng([seed, n, index])
    taskset = generate_control_taskset(n, rng, config=params.get("config"))
    uq = assign_unsafe_quadratic(taskset)
    bt = assign_backtracking(
        taskset, max_evaluations=params.get("max_evaluations", 1_000_000)
    )
    return {
        "n": n,
        "index": index,
        "uq_seconds": uq.elapsed_seconds,
        "uq_evaluations": uq.evaluations,
        "bt_seconds": bt.elapsed_seconds,
        "bt_evaluations": bt.evaluations,
        "bt_backtracks": bt.backtracks,
    }


def sweep_spec(
    *,
    task_counts: Sequence[int] = (4, 6, 8, 10, 12, 14, 16, 18, 20),
    benchmarks: int = 100,
    seed: int = 2017,
    config: Optional[BenchmarkConfig] = None,
    max_evaluations: int = 1_000_000,
    chunk_size: int = 32,
) -> SweepSpec:
    """Sweep description of the Fig. 5 runtime comparison."""
    params: Dict[str, Any] = {"max_evaluations": max_evaluations}
    if config is not None:
        params["config"] = config
    return SweepSpec(
        name="fig5",
        worker=_fig5_worker,
        items=tuple(
            {"n": n, "index": index}
            for n in task_counts
            for index in range(benchmarks)
        ),
        params=params,
        seed=seed,
        chunk_size=chunk_size,
        bound_keys=suite_bound_keys,
        volatile_keys=("uq_seconds", "bt_seconds"),
    )


def reduce_records(records: Iterable[Dict[str, Any]]) -> Fig5Result:
    """Aggregate per-benchmark timing records into a :class:`Fig5Result`."""
    per_count: Dict[int, List[Dict[str, Any]]] = {}
    for record in records:
        per_count.setdefault(record["n"], []).append(record)
    task_counts = tuple(sorted(per_count))

    def series(prefix: str, backtracks: bool = False) -> AlgorithmSeries:
        secs = {
            n: [r[f"{prefix}_seconds"] for r in per_count[n]]
            for n in task_counts
        }
        evals = {
            n: [float(r[f"{prefix}_evaluations"]) for r in per_count[n]]
            for n in task_counts
        }
        return AlgorithmSeries(
            mean_seconds={n: float(np.mean(secs[n])) for n in task_counts},
            max_seconds={n: float(np.max(secs[n])) for n in task_counts},
            mean_evaluations={n: float(np.mean(evals[n])) for n in task_counts},
            max_evaluations={n: int(np.max(evals[n])) for n in task_counts},
            backtrack_runs={
                n: sum(1 for r in per_count[n] if r["bt_backtracks"] > 0)
                if backtracks
                else 0
                for n in task_counts
            },
        )

    benchmarks_per_count = max(
        (len(rs) for rs in per_count.values()), default=0
    )
    return Fig5Result(
        benchmarks_per_count=benchmarks_per_count,
        task_counts=task_counts,
        unsafe=series("uq"),
        backtracking=series("bt", backtracks=True),
    )


def from_sweep(result: SweepResult) -> Fig5Result:
    """Rebuild the experiment result from a sweep artifact."""
    return reduce_records(result.records)


def run_fig5(
    *,
    task_counts: Sequence[int] = (4, 6, 8, 10, 12, 14, 16, 18, 20),
    benchmarks: int = 100,
    seed: int = 2017,
    config: Optional[BenchmarkConfig] = None,
    max_evaluations: int = 1_000_000,
    jobs: int = 1,
) -> Fig5Result:
    """Time both algorithms over a shared benchmark suite."""
    spec = sweep_spec(
        task_counts=task_counts,
        benchmarks=benchmarks,
        seed=seed,
        config=config,
        max_evaluations=max_evaluations,
    )
    return from_sweep(run_sweep(spec, jobs=jobs))
