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
from typing import Dict, List, Optional

import numpy as np

from repro.anomalies.detectors import AnomalyEvent, all_anomalies
from repro.assignment.backtracking import assign_backtracking
from repro.benchgen.taskgen import BenchmarkConfig, generate_control_taskset


@dataclass
class AnomalyCensus:
    """Aggregated counts of one census run."""

    benchmarks: int = 0
    feasible: int = 0
    moves_checked: Dict[str, int] = field(default_factory=dict)
    anomalous_moves: Dict[str, int] = field(default_factory=dict)
    destabilising_moves: Dict[str, int] = field(default_factory=dict)
    events: List[AnomalyEvent] = field(default_factory=list)

    def record(self, kind: str, checked: int, found: List[AnomalyEvent]) -> None:
        self.moves_checked[kind] = self.moves_checked.get(kind, 0) + checked
        self.anomalous_moves[kind] = self.anomalous_moves.get(kind, 0) + len(found)
        self.destabilising_moves[kind] = self.destabilising_moves.get(kind, 0) + sum(
            1 for e in found if e.destabilising
        )
        self.events.extend(found)

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
    rng = np.random.default_rng([seed, n_tasks, index])
    taskset = generate_control_taskset(n_tasks, rng, config=config)
    result = assign_backtracking(taskset, max_evaluations=100_000)
    if result.priorities is None:
        return BenchmarkCensus(feasible=False, moves_checked={}, events=[])
    assigned = result.apply_to(taskset)
    pairs = _interferer_pairs(len(assigned))
    checked = {
        "priority_raise": len(assigned) - 1,
        "wcet_decrease": pairs,
        "period_increase": pairs,
    }
    events = all_anomalies(assigned)
    return BenchmarkCensus(feasible=True, moves_checked=checked, events=events)


def _interferer_pairs(n: int) -> int:
    """Ordered (interferer, observed) pairs with observed lower priority."""
    return n * (n - 1) // 2
