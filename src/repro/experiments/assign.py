"""The assignment-algorithm comparison at census scale (``assign`` sweep).

The paper compares its priority-assignment algorithms along two axes:
*quality* (does the emitted assignment actually validate? -- Table I) and
*cost* (constraint evaluations / wall-clock -- Fig. 5).  This experiment
runs the whole strategy suite of :mod:`repro.search` over the benchmark
census population on the sweep engine and reports both axes per
algorithm and task count.

Every instance runs its suite on one *shared*
:class:`~repro.memo.AnalysisMemo`: the algorithms evaluate
heavily overlapping ``(task, hp-set)`` subproblems (the greedy level
scans of Audsley/Unsafe Quadratic are prefixes of the backtracking tree;
the exhaustive scan revisits everything), so the comparison -- the
workload the paper actually ran -- is where the memoised engine pays off.
Logical evaluation counts are unaffected (cache hits tick the same
counter), keeping the tables comparable to the paper; the
``recomputations`` column shows what the engine really computed.

Determinism: the memo is per-instance, algorithms run in a fixed
order, and every random draw derives from ``(seed, n, index)`` -- records
are byte-identical at any ``--jobs`` level (assignments included).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.service import analyze
from repro.benchgen.taskgen import (
    BenchmarkConfig,
    generate_control_taskset,
    suite_bound_keys,
)
from repro.experiments.report import format_table
from repro.search import run_strategy
from repro.memo import AnalysisMemo
from repro.sweep import SweepResult, SweepSpec, run_sweep

#: Suite order (fixed: it determines which run warms the shared memo).
ALGORITHMS: Tuple[str, ...] = (
    "rate_monotonic",
    "slack_monotonic",
    "audsley",
    "unsafe_quadratic",
    "backtracking",
    "exhaustive",
)

#: Exhaustive enumeration is skipped above this task count (n! orders).
DEFAULT_EXHAUSTIVE_MAX_N = 6


@dataclass(frozen=True)
class AlgorithmRow:
    """Aggregates of one algorithm at one task count."""

    algorithm: str
    n: int
    instances: int
    assigned: int
    valid: int
    mean_evaluations: float
    mean_recomputations: float
    backtrack_runs: int
    mean_seconds: float


@dataclass(frozen=True)
class AssignResult:
    """Per-(algorithm, n) comparison tables of the assignment sweep."""

    benchmarks_per_count: int
    task_counts: Tuple[int, ...]
    rows: Tuple[AlgorithmRow, ...]

    def row(self, algorithm: str, n: int) -> AlgorithmRow:
        for row in self.rows:
            if row.algorithm == algorithm and row.n == n:
                return row
        raise KeyError((algorithm, n))

    def render(self) -> str:
        table_rows = []
        for row in self.rows:
            if row.instances == 0:
                continue
            table_rows.append(
                (
                    row.n,
                    row.algorithm,
                    f"{row.assigned}/{row.instances}",
                    f"{row.valid}/{row.instances}",
                    f"{row.mean_evaluations:.1f}",
                    f"{row.mean_recomputations:.1f}",
                    row.backtrack_runs,
                    f"{row.mean_seconds * 1e3:.2f}",
                )
            )
        return format_table(
            [
                "n",
                "algorithm",
                "assigned",
                "valid",
                "evals",
                "recomputed",
                "runs w/ backtrack",
                "mean ms",
            ],
            table_rows,
            title=(
                "Priority-assignment comparison (shared analysis memo per "
                f"instance, {self.benchmarks_per_count} benchmarks/count)"
            ),
        )


def _assign_worker(
    item: Dict[str, int], params: Dict[str, Any], seed: int
) -> Dict[str, Any]:
    """Run the algorithm suite on one census benchmark (sweep worker)."""
    n, index = item["n"], item["index"]
    rng = np.random.default_rng([seed, n, index])
    taskset = generate_control_taskset(n, rng, config=params.get("config"))
    memo = AnalysisMemo()
    record: Dict[str, Any] = {"n": n, "index": index}
    for algorithm in params["algorithms"]:
        if algorithm == "exhaustive" and n > params["exhaustive_max_n"]:
            for key in (
                "success", "valid", "evaluations", "cache_hits",
                "backtracks", "priorities", "seconds",
            ):
                record[f"{algorithm}_{key}"] = None
            continue
        options = (
            {"max_evaluations": params["max_evaluations"]}
            if algorithm == "backtracking"
            else {}
        )
        result = run_strategy(algorithm, taskset, memo=memo, **options)
        valid = None
        if result.priorities is not None:
            valid = analyze(result.apply_to(taskset)).stable
        record[f"{algorithm}_success"] = result.priorities is not None
        record[f"{algorithm}_valid"] = valid
        record[f"{algorithm}_evaluations"] = result.evaluations
        record[f"{algorithm}_cache_hits"] = result.cache_hits
        record[f"{algorithm}_backtracks"] = result.backtracks
        record[f"{algorithm}_priorities"] = result.priorities
        record[f"{algorithm}_seconds"] = result.elapsed_seconds
    return record


def sweep_spec(
    *,
    task_counts: Sequence[int] = (4, 6, 8),
    benchmarks: int = 100,
    seed: int = 2017,
    config: Optional[BenchmarkConfig] = None,
    algorithms: Sequence[str] = ALGORITHMS,
    max_evaluations: int = 1_000_000,
    exhaustive_max_n: int = DEFAULT_EXHAUSTIVE_MAX_N,
    chunk_size: int = 16,
) -> SweepSpec:
    """Sweep description of the assignment comparison."""
    params: Dict[str, Any] = {
        "algorithms": tuple(algorithms),
        "max_evaluations": max_evaluations,
        "exhaustive_max_n": exhaustive_max_n,
    }
    if config is not None:
        params["config"] = config
    return SweepSpec(
        name="assign",
        worker=_assign_worker,
        items=tuple(
            {"n": n, "index": index}
            for n in task_counts
            for index in range(benchmarks)
        ),
        params=params,
        seed=seed,
        chunk_size=chunk_size,
        bound_keys=suite_bound_keys,
        volatile_keys=tuple(f"{a}_seconds" for a in algorithms),
    )


def reduce_records(
    records: Iterable[Dict[str, Any]],
    algorithms: Sequence[str] = ALGORITHMS,
) -> AssignResult:
    """Aggregate per-benchmark suite records into an :class:`AssignResult`."""
    per_count: Dict[int, List[Dict[str, Any]]] = {}
    for record in records:
        per_count.setdefault(record["n"], []).append(record)
    task_counts = tuple(sorted(per_count))

    rows: List[AlgorithmRow] = []
    for n in task_counts:
        for algorithm in algorithms:
            ran = [
                r
                for r in per_count[n]
                if r.get(f"{algorithm}_success") is not None
            ]
            if not ran:
                rows.append(
                    AlgorithmRow(algorithm, n, 0, 0, 0, 0.0, 0.0, 0, 0.0)
                )
                continue
            evals = [float(r[f"{algorithm}_evaluations"]) for r in ran]
            recomputed = [
                float(
                    r[f"{algorithm}_evaluations"]
                    - r[f"{algorithm}_cache_hits"]
                )
                for r in ran
            ]
            seconds = [
                float(r[f"{algorithm}_seconds"])
                for r in ran
                if r.get(f"{algorithm}_seconds") is not None
            ]
            rows.append(
                AlgorithmRow(
                    algorithm=algorithm,
                    n=n,
                    instances=len(ran),
                    assigned=sum(
                        1 for r in ran if r[f"{algorithm}_success"]
                    ),
                    valid=sum(1 for r in ran if r[f"{algorithm}_valid"]),
                    mean_evaluations=float(np.mean(evals)),
                    mean_recomputations=float(np.mean(recomputed)),
                    backtrack_runs=sum(
                        1 for r in ran if r[f"{algorithm}_backtracks"]
                    ),
                    mean_seconds=(
                        float(np.mean(seconds)) if seconds else 0.0
                    ),
                )
            )
    benchmarks_per_count = max(
        (len(rs) for rs in per_count.values()), default=0
    )
    return AssignResult(
        benchmarks_per_count=benchmarks_per_count,
        task_counts=task_counts,
        rows=tuple(rows),
    )


def from_sweep(result: SweepResult) -> AssignResult:
    """Rebuild the experiment result from a sweep artifact."""
    return reduce_records(result.records)


def run_assign(
    *,
    task_counts: Sequence[int] = (4, 6, 8),
    benchmarks: int = 100,
    seed: int = 2017,
    config: Optional[BenchmarkConfig] = None,
    algorithms: Sequence[str] = ALGORITHMS,
    max_evaluations: int = 1_000_000,
    exhaustive_max_n: int = DEFAULT_EXHAUSTIVE_MAX_N,
    jobs: int = 1,
) -> AssignResult:
    """Run the suite comparison over a shared benchmark population."""
    spec = sweep_spec(
        task_counts=task_counts,
        benchmarks=benchmarks,
        seed=seed,
        config=config,
        algorithms=algorithms,
        max_evaluations=max_evaluations,
        exhaustive_max_n=exhaustive_max_n,
    )
    return from_sweep(run_sweep(spec, jobs=jobs))
