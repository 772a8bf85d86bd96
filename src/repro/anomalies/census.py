"""Monte-Carlo anomaly census: how rare are the anomalies, really?

Table I of the paper measures anomaly rarity indirectly (failures of the
monotonicity-trusting assigner).  The census measures it *directly*: over
random benchmarks with random valid priority assignments, how many
single-parameter "improvements" (priority raise, interferer WCET decrease,
interferer period increase) degrade some task's stability slack, and how
many of those actually destabilise a task.

This quantifies the paper's central claim -- "these anomalies are, in
fact, very improbable" -- at the level of individual design moves rather
than whole algorithm runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.anomalies.detectors import (
    AnomalyEvent,
    all_anomalies,
    population_anomalies,
)
from repro.assignment.backtracking import assign_backtracking
from repro.benchgen.taskgen import BenchmarkConfig, generate_control_taskset
from repro.rta.taskset import TaskSet


@dataclass
class AnomalyCensus:
    """Aggregated counts of one census run."""

    benchmarks: int = 0
    feasible: int = 0
    moves_checked: Dict[str, int] = field(default_factory=dict)
    anomalous_moves: Dict[str, int] = field(default_factory=dict)
    destabilising_moves: Dict[str, int] = field(default_factory=dict)

    def add(
        self, kind: str, checked: int, anomalous: int, destabilising: int
    ) -> None:
        """Add one benchmark's move counts of ``kind``."""
        self.moves_checked[kind] = self.moves_checked.get(kind, 0) + checked
        self.anomalous_moves[kind] = self.anomalous_moves.get(kind, 0) + anomalous
        self.destabilising_moves[kind] = (
            self.destabilising_moves.get(kind, 0) + destabilising
        )

    def anomaly_rate(self, kind: str) -> float:
        checked = self.moves_checked.get(kind, 0)
        return self.anomalous_moves.get(kind, 0) / checked if checked else 0.0

    def destabilising_rate(self, kind: str) -> float:
        checked = self.moves_checked.get(kind, 0)
        return self.destabilising_moves.get(kind, 0) / checked if checked else 0.0


@dataclass(frozen=True)
class BenchmarkCensus:
    """Census outcome of one benchmark: the unit of the census sweep."""

    feasible: bool
    moves_checked: Dict[str, int]
    events: List[AnomalyEvent]

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def destabilising_count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind and e.destabilising)


def census_benchmark(
    n_tasks: int,
    index: int,
    *,
    seed: int = 99,
    config: Optional[BenchmarkConfig] = None,
) -> BenchmarkCensus:
    """Probe one benchmark instance for anomalous moves.

    Deterministic in ``(seed, n_tasks, index)`` alone -- the same child
    generator protocol as the benchmark suite -- so census sweeps can be
    chunked and parallelised freely without changing a single count.
    """
    assigned = _assigned_benchmark(n_tasks, index, seed, config)
    events = [] if assigned is None else all_anomalies(assigned)
    return _benchmark_census(assigned, events)


def census_benchmarks(
    benchmarks: Sequence[Tuple[int, int]],
    *,
    seed: int = 99,
    config: Optional[BenchmarkConfig] = None,
) -> List[BenchmarkCensus]:
    """:func:`census_benchmark` of every ``(n_tasks, index)``, in order.

    Each benchmark is drawn and searched alone; the detectors then run
    once for all the feasible ones (:func:`~repro.anomalies.detectors
    .population_anomalies`), and the counts come from the same
    :class:`BenchmarkCensus` code.  Equal to ``[census_benchmark(n,
    index, seed=seed, config=config) for n, index in benchmarks]``.
    """
    assigned = [
        _assigned_benchmark(n_tasks, index, seed, config)
        for n_tasks, index in benchmarks
    ]
    events = iter(
        population_anomalies([ts for ts in assigned if ts is not None])
    )
    return [
        _benchmark_census(ts, [] if ts is None else next(events))
        for ts in assigned
    ]


def _assigned_benchmark(
    n_tasks: int, index: int, seed: int, config: Optional[BenchmarkConfig]
) -> Optional[TaskSet]:
    """The benchmark with its backtracking priorities, or ``None``."""
    rng = np.random.default_rng([seed, n_tasks, index])
    taskset = generate_control_taskset(n_tasks, rng, config=config)
    result = assign_backtracking(taskset, max_evaluations=100_000)
    if result.priorities is None:
        return None
    return result.apply_to(taskset)


def _benchmark_census(
    assigned: Optional[TaskSet], events: List[AnomalyEvent]
) -> BenchmarkCensus:
    if assigned is None:
        return BenchmarkCensus(feasible=False, moves_checked={}, events=[])
    pairs = _interferer_pairs(len(assigned))
    checked = {
        "priority_raise": len(assigned) - 1,
        "wcet_decrease": pairs,
        "period_increase": pairs,
    }
    return BenchmarkCensus(feasible=True, moves_checked=checked, events=events)


def _interferer_pairs(n: int) -> int:
    """Ordered (interferer, observed) pairs with observed lower priority."""
    return n * (n - 1) // 2
