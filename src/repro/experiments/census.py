"""Anomaly census experiment (extension beyond the paper's Table I).

Table I measures anomaly rarity through algorithm failures; the census
measures it directly: over feasible random benchmarks with valid
assignments, what fraction of single "improvement" moves (priority raise,
interferer speed-up, interferer slow-down) degrade a task -- and what
fraction actually destabilise one.  This is the sharpest quantitative
form of the paper's thesis sentence: "we demonstrate that these anomalies
are, in fact, very improbable."

The heavy lifting -- one generated benchmark, one backtracking assignment,
three detector passes per item -- runs on the :mod:`repro.sweep` engine,
so ``python -m repro sweep census --jobs N`` distributes it over worker
processes while producing counts identical to the serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Sequence

from repro.anomalies.census import AnomalyCensus, census_benchmark
from repro.benchgen.taskgen import BenchmarkConfig, suite_bound_keys
from repro.experiments.report import format_table
from repro.sweep import SweepResult, SweepSpec, run_sweep

#: Anomaly families counted per benchmark (order fixed for rendering).
_KINDS = ("priority_raise", "wcet_decrease", "period_increase")


@dataclass(frozen=True)
class CensusResult:
    """Census outcomes per task count."""

    benchmarks_per_count: int
    censuses: Dict[int, AnomalyCensus]

    def render(self) -> str:
        rows = []
        for n, census in sorted(self.censuses.items()):
            for kind in sorted(census.moves_checked):
                rows.append(
                    (
                        n,
                        kind,
                        census.moves_checked[kind],
                        census.anomalous_moves[kind],
                        100.0 * census.anomaly_rate(kind),
                        100.0 * census.destabilising_rate(kind),
                    )
                )
        return format_table(
            [
                "n",
                "move kind",
                "moves",
                "anomalous",
                "anomalous %",
                "destabilising %",
            ],
            rows,
            title=(
                "Anomaly census (extension): frequency of monotonicity "
                "violations over random valid designs"
            ),
        )


def _census_worker(
    item: Dict[str, int], params: Dict[str, Any], seed: int
) -> Dict[str, Any]:
    """Census counts of one benchmark instance (sweep worker)."""
    single = census_benchmark(
        item["n"], item["index"], seed=seed, config=params.get("config")
    )
    record: Dict[str, Any] = {
        "n": item["n"],
        "index": item["index"],
        "feasible": single.feasible,
    }
    for kind in _KINDS:
        record[f"{kind}_checked"] = single.moves_checked.get(kind, 0)
        record[f"{kind}_anomalous"] = single.count(kind)
        record[f"{kind}_destabilising"] = single.destabilising_count(kind)
    return record


def sweep_spec(
    *,
    task_counts: Sequence[int] = (4, 8, 12),
    benchmarks: int = 100,
    seed: int = 424242,
    config: Optional[BenchmarkConfig] = None,
    chunk_size: int = 16,
) -> SweepSpec:
    """Sweep description of the census experiment."""
    params: Dict[str, Any] = {}
    if config is not None:
        params["config"] = config
    return SweepSpec(
        name="census",
        worker=_census_worker,
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


def reduce_records(records: Iterable[Dict[str, Any]]) -> CensusResult:
    """Aggregate per-benchmark census records into a :class:`CensusResult`."""
    censuses: Dict[int, AnomalyCensus] = {}
    per_count: Dict[int, int] = {}
    for record in records:
        n = record["n"]
        census = censuses.setdefault(n, AnomalyCensus())
        per_count[n] = per_count.get(n, 0) + 1
        census.benchmarks += 1
        if not record["feasible"]:
            continue
        census.feasible += 1
        for kind in _KINDS:
            census.moves_checked[kind] = (
                census.moves_checked.get(kind, 0) + record[f"{kind}_checked"]
            )
            census.anomalous_moves[kind] = (
                census.anomalous_moves.get(kind, 0)
                + record[f"{kind}_anomalous"]
            )
            census.destabilising_moves[kind] = (
                census.destabilising_moves.get(kind, 0)
                + record[f"{kind}_destabilising"]
            )
    benchmarks_per_count = max(per_count.values(), default=0)
    return CensusResult(
        benchmarks_per_count=benchmarks_per_count, censuses=censuses
    )


def from_sweep(result: SweepResult) -> CensusResult:
    """Rebuild the experiment result from a sweep artifact."""
    return reduce_records(result.records)


def run_census(
    *,
    task_counts: Sequence[int] = (4, 8, 12),
    benchmarks: int = 100,
    seed: int = 424242,
    config: Optional[BenchmarkConfig] = None,
    jobs: int = 1,
) -> CensusResult:
    spec = sweep_spec(
        task_counts=task_counts, benchmarks=benchmarks, seed=seed, config=config
    )
    return from_sweep(run_sweep(spec, jobs=jobs))
