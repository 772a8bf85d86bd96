"""Delay-aware period assignment by best-first search over cost.

Problem.  ``n`` control loops share a processor; loop ``i`` has a fixed
execution-time demand and a menu of candidate sampling periods.  Shorter
periods give better control (lower LQG cost -- the Fig. 2 trend) but more
CPU demand.  Choose one period per loop, and priorities, such that every
loop's stability constraint holds, minimising the total LQG cost over the
sampled candidate grid.

Method.  Per-loop candidates are evaluated once (cost via the stationary
LQG analysis, stability bound via the jitter margin).  Combinations are
then popped from a min-heap keyed by total cost -- the classic k-way
lattice enumeration: start from the all-cheapest combination and push the
single-coordinate successors of each popped node.  The first combination
that admits a valid priority assignment (paper Algorithm 1) is optimal
over the grid, because total cost is additive and the heap enumerates in
non-decreasing order.  Feasibility is *never* extrapolated between
combinations: each candidate is re-validated exactly, which is the
anomaly-safe discipline the paper prescribes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.assignment.backtracking import assign_backtracking
from repro.memo import AnalysisMemo
from repro.control.cost import plant_lqg_cost
from repro.control.plants import Plant, get_plant
from repro.errors import ModelError
from repro.jittermargin.linearbound import (
    LinearStabilityBound,
    stability_bound_for_plant,
)
from repro.rta.taskset import Task, TaskSet


@dataclass(frozen=True)
class ControlLoopSpec:
    """One control loop entering the co-design.

    Attributes
    ----------
    name:
        Loop identifier (becomes the task name).
    plant:
        Plant name in the library, or a :class:`Plant` object.
    wcet:
        Execution-time demand of the control task (seconds per job).
    bcet_fraction:
        ``c^b = bcet_fraction * c^w``.
    candidate_periods:
        Explicit period menu; ``None`` draws a geometric grid from the
        plant's realistic range (clipped to hold the WCET).
    """

    name: str
    plant: object
    wcet: float
    bcet_fraction: float = 0.5
    candidate_periods: Optional[Tuple[float, ...]] = None

    def resolve_plant(self) -> Plant:
        if isinstance(self.plant, Plant):
            return self.plant
        return get_plant(str(self.plant))


@dataclass(frozen=True)
class PeriodCandidate:
    """One evaluated period option of one loop."""

    period: float
    cost: float
    bound: LinearStabilityBound


@dataclass(frozen=True)
class CodesignResult:
    """Outcome of the period-assignment search.

    ``assignment_evaluations`` is the paper's logical count summed over
    every combination tried; ``assignment_cache_hits`` is how many of
    those the shared analysis memo answered from its cache (combinations
    differ in one loop's period, so most subproblems recur).
    """

    chosen: Dict[str, PeriodCandidate]
    priorities: Dict[str, int]
    total_cost: float
    combinations_checked: int
    assignment_evaluations: int
    assignment_cache_hits: int = 0

    def taskset(self, loops: Sequence[ControlLoopSpec]) -> TaskSet:
        """Materialise the chosen design as a prioritised task set."""
        tasks = []
        for loop in loops:
            candidate = self.chosen[loop.name]
            tasks.append(
                Task(
                    name=loop.name,
                    period=candidate.period,
                    wcet=loop.wcet,
                    bcet=loop.wcet * loop.bcet_fraction,
                    priority=self.priorities[loop.name],
                    stability=candidate.bound,
                )
            )
        return TaskSet(tasks)


def candidate_table(
    loop: ControlLoopSpec,
    *,
    points: int = 5,
    exact_bounds: bool = False,
) -> List[PeriodCandidate]:
    """Evaluate the loop's period menu: LQG cost + stability bound each.

    Candidates whose LQG problem is pathological (infinite cost) are kept
    with ``cost = inf`` so callers can see them; the search skips them.
    """
    plant = loop.resolve_plant()
    if loop.candidate_periods is not None:
        periods = [float(h) for h in loop.candidate_periods]
    else:
        lo, hi = plant.period_range
        lo = max(lo, 2.0 * loop.wcet)
        if lo > hi:
            raise ModelError(
                f"loop {loop.name!r}: WCET {loop.wcet} does not fit the "
                f"plant's period range {plant.period_range}"
            )
        periods = list(np.geomspace(lo, hi, points))
    table = []
    for h in periods:
        if loop.wcet > h:
            continue
        cost = plant_lqg_cost(plant, h)
        bound = stability_bound_for_plant(plant, h, exact_period=exact_bounds)
        table.append(PeriodCandidate(period=h, cost=cost, bound=bound))
    if not table:
        raise ModelError(f"loop {loop.name!r} has no admissible period")
    table.sort(key=lambda c: c.cost)
    return table


def _candidate_table_worker(item, params, seed) -> dict:
    """Evaluate one loop's period menu (sweep worker).

    Candidate evaluation -- one LQG design plus one stability-curve fit
    per period -- dominates the co-design wall clock and is embarrassingly
    parallel across loops; the heap search that follows is cheap and stays
    serial.
    """
    loop = params["loops"][item["k"]]
    table = candidate_table(loop, points=params["points"])
    return {
        "loop": loop.name,
        "candidates": [
            {"period": c.period, "cost": c.cost, "a": c.bound.a, "b": c.bound.b}
            for c in table
        ],
    }


def _candidate_tables(
    loops: Sequence[ControlLoopSpec], points: int, jobs: int
) -> List[List[PeriodCandidate]]:
    """Per-loop candidate tables, fanned out over the sweep engine."""
    if jobs <= 1:
        return [candidate_table(loop, points=points) for loop in loops]
    from repro.sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        name="codesign-candidates",
        worker=_candidate_table_worker,
        items=tuple({"k": k} for k in range(len(loops))),
        params={"loops": tuple(loops), "points": points},
        chunk_size=1,
    )
    result = run_sweep(spec, jobs=jobs)
    return [
        [
            PeriodCandidate(
                period=c["period"],
                cost=c["cost"],
                bound=LinearStabilityBound(a=c["a"], b=c["b"]),
            )
            for c in record["candidates"]
        ]
        for record in result.records
    ]


def assign_periods(
    loops: Sequence[ControlLoopSpec],
    *,
    points: int = 5,
    max_combinations: int = 10_000,
    utilization_cap: float = 1.0,
    jobs: int = 1,
) -> Optional[CodesignResult]:
    """Best-first period + priority co-design over the candidate grids.

    Returns the cheapest valid design on the grid, or ``None`` when no
    combination within the budget is schedulable and stable.  ``jobs``
    parallelises the candidate-table evaluation (the expensive phase).
    """
    if not loops:
        raise ModelError("need at least one control loop")
    names = [loop.name for loop in loops]
    if len(set(names)) != len(names):
        raise ModelError(f"duplicate loop names: {names}")
    tables = _candidate_tables(loops, points, jobs)

    def total_cost(indices: Tuple[int, ...]) -> float:
        return sum(t[i].cost for t, i in zip(tables, indices))

    start = tuple(0 for _ in loops)
    heap: List[Tuple[float, Tuple[int, ...]]] = [(total_cost(start), start)]
    seen = {start}
    checked = 0
    evaluations = 0
    cache_hits = 0
    # One analysis memo for the whole combination loop: successive
    # combinations differ in a single loop's period, so their assignment
    # subproblems overlap heavily and the memo answers the repeats.
    search_memo = AnalysisMemo()

    while heap and checked < max_combinations:
        cost, indices = heapq.heappop(heap)
        checked += 1
        if math.isfinite(cost):
            candidates = [t[i] for t, i in zip(tables, indices)]
            utilization = sum(
                loop.wcet / c.period for loop, c in zip(loops, candidates)
            )
            if utilization < utilization_cap:
                tasks = TaskSet(
                    [
                        Task(
                            name=loop.name,
                            period=c.period,
                            wcet=loop.wcet,
                            bcet=loop.wcet * loop.bcet_fraction,
                            stability=c.bound,
                        )
                        for loop, c in zip(loops, candidates)
                    ]
                )
                result = assign_backtracking(tasks, memo=search_memo)
                evaluations += result.evaluations
                cache_hits += result.cache_hits
                if result.priorities is not None:
                    return CodesignResult(
                        chosen={
                            loop.name: c for loop, c in zip(loops, candidates)
                        },
                        priorities=result.priorities,
                        total_cost=cost,
                        combinations_checked=checked,
                        assignment_evaluations=evaluations,
                        assignment_cache_hits=cache_hits,
                    )
        # Push single-coordinate successors (next-more-expensive options).
        for axis in range(len(loops)):
            successor = list(indices)
            successor[axis] += 1
            if successor[axis] >= len(tables[axis]):
                continue
            key = tuple(successor)
            if key in seen:
                continue
            seen.add(key)
            heapq.heappush(heap, (total_cost(key), key))
    return None
