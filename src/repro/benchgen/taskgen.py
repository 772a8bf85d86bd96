"""Random control task sets (the paper's benchmark protocol).

Every benchmark is a :class:`~repro.rta.taskset.TaskSet` of ``n`` control
tasks without priorities.  For each task:

1. a plant is drawn from the benchmark plant database (paper: "plants are
   chosen from [4], [14]");
2. a sampling period is drawn log-uniformly from the plant's realistic
   period range;
3. the worst-case execution time is ``u_i * h_i`` with ``u_i`` from
   UUniFast at the configured total utilisation;
4. the best-case execution time is a random fraction of the WCET (the
   ``c^b <= c <= c^w`` interval of the paper's task model -- execution-time
   variation is what makes response-time *jitter*, and hence the
   anomalies, possible at all);
5. the stability constraint ``(a_i, b_i)`` comes from the jitter-margin
   analysis of the plant's LQG controller at that period (cached across
   the suite through period bucketing).

The total utilisation is drawn per benchmark from a configured range;
the paper fixes its (unreported) value per experiment -- see DESIGN.md and
EXPERIMENTS.md for the calibration we use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.benchgen.uunifast import uunifast
from repro.control.plants import BENCHMARK_PLANT_NAMES, Plant, get_plant
from repro.errors import ModelError
from repro.jittermargin.linearbound import BoundKey, bound_key, stability_bound_for_plant
from repro.rta.taskset import Task, TaskSet

#: Smallest admissible WCET (seconds): guards degenerate UUniFast shares.
_MIN_WCET = 1e-6


@dataclass(frozen=True)
class BenchmarkConfig:
    """Knobs of the benchmark generator.

    The defaults are the calibration used throughout EXPERIMENTS.md:
    utilisations in ``[0.35, 0.68]`` keep almost every instance solvable
    while leaving the stability constraints genuinely active (measured
    invalid rate of Unsafe Quadratic at n = 4: ~0.4 %, matching the
    paper's Table I), and BCET fractions in ``[0.2, 1.0]`` give the
    execution-time variation that produces jitter.
    """

    plant_names: Tuple[str, ...] = BENCHMARK_PLANT_NAMES
    utilization_range: Tuple[float, float] = (0.35, 0.68)
    bcet_fraction_range: Tuple[float, float] = (0.2, 1.0)
    log_uniform_periods: bool = True

    def __post_init__(self) -> None:
        lo, hi = self.utilization_range
        if not (0 < lo <= hi < 1):
            raise ModelError(f"utilisation range must be in (0,1): {self.utilization_range}")
        lo_b, hi_b = self.bcet_fraction_range
        if not (0 < lo_b <= hi_b <= 1):
            raise ModelError(
                f"bcet fraction range must be in (0,1]: {self.bcet_fraction_range}"
            )
        if not self.plant_names:
            raise ModelError("need at least one plant name")


@lru_cache(maxsize=None)
def _plant_name_array(names: Tuple[str, ...]) -> np.ndarray:
    """The plant-name pool as an ndarray, built once per distinct pool.

    ``Generator.choice`` converts a plain sequence to an array on every
    call; the draw itself (one index from ``len(names)``) is identical
    either way, so pre-building the array changes no rng stream.
    """
    return np.array(names)


def _draw_period(plant_range: Tuple[float, float], rng: np.random.Generator, log_uniform: bool) -> float:
    lo, hi = plant_range
    if log_uniform:
        return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
    return float(rng.uniform(lo, hi))


class TaskDraw(NamedTuple):
    """The random parameters of one generated control task."""

    plant: Plant
    period: float
    wcet: float
    bcet: float


def draw_task_parameters(
    n: int,
    rng: np.random.Generator,
    *,
    config: Optional[BenchmarkConfig] = None,
    utilization: Optional[float] = None,
) -> List[TaskDraw]:
    """Every random draw of :func:`generate_control_taskset`, no bounds.

    Consumes ``rng`` exactly as generation does (generation calls this),
    so the stability-bound keys of a task set can be listed without
    computing a single bound.
    """
    config = config or BenchmarkConfig()
    if utilization is None:
        utilization = float(rng.uniform(*config.utilization_range))
    shares = uunifast(n, utilization, rng)
    plant_pool = _plant_name_array(config.plant_names)

    draws: List[TaskDraw] = []
    for share in shares:
        plant = get_plant(str(rng.choice(plant_pool)))
        period = _draw_period(plant.period_range, rng, config.log_uniform_periods)
        wcet = max(share * period, _MIN_WCET)
        fraction = float(rng.uniform(*config.bcet_fraction_range))
        bcet = max(wcet * fraction, _MIN_WCET / 2)
        draws.append(TaskDraw(plant, period, wcet, bcet))
    return draws


def generate_control_taskset(
    n: int,
    rng: np.random.Generator,
    *,
    config: Optional[BenchmarkConfig] = None,
    utilization: Optional[float] = None,
) -> TaskSet:
    """Generate one benchmark task set of ``n`` control tasks.

    ``utilization`` overrides the configured range (used by sweeps that
    control utilisation explicitly).
    """
    draws = draw_task_parameters(n, rng, config=config, utilization=utilization)
    return TaskSet(
        [
            Task(
                name=f"tau{index + 1}",
                period=draw.period,
                wcet=draw.wcet,
                bcet=draw.bcet,
                stability=stability_bound_for_plant(draw.plant, draw.period),
                plant_name=draw.plant.name,
            )
            for index, draw in enumerate(draws)
        ]
    )


def suite_bound_keys(
    items: Iterable[Dict[str, Any]], params: Dict[str, Any], seed: int
) -> List[BoundKey]:
    """The distinct bound-table keys of suite items, in draw order.

    The :class:`~repro.sweep.spec.SweepSpec` key function shared by the
    sweeps whose worker generates item ``{"n", "index"}`` as
    ``generate_control_taskset(n, default_rng([seed, n, index]),
    config=params.get("config"))`` -- the protocol of
    :func:`generate_benchmark_suite`.
    """
    config = params.get("config")
    keys: Dict[BoundKey, None] = {}
    for item in items:
        n = item["n"]
        rng = np.random.default_rng([seed, n, item["index"]])
        for draw in draw_task_parameters(n, rng, config=config):
            keys[bound_key(draw.plant, draw.period)] = None
    return list(keys)


def draw_control_taskset(
    rng: np.random.Generator,
    *,
    n_range: Tuple[int, int] = (3, 5),
    config: Optional[BenchmarkConfig] = None,
    utilization: Optional[float] = None,
) -> TaskSet:
    """Draw one benchmark task set with the task count itself randomised.

    The scenario subsystem samples whole populations of task sets per
    scenario; drawing ``n`` uniformly from ``n_range`` (inclusive) makes
    one scenario cover a size band instead of a single point.  All
    randomness comes from ``rng``, so the draw is reproducible from the
    caller's seed derivation.
    """
    lo, hi = n_range
    if not (1 <= lo <= hi):
        raise ModelError(f"need 1 <= n_min <= n_max, got n_range={n_range}")
    n = int(rng.integers(lo, hi + 1))
    return generate_control_taskset(n, rng, config=config, utilization=utilization)


def generate_benchmark_suite(
    task_counts: Sequence[int],
    benchmarks_per_count: int,
    *,
    seed: int = 2017,
    config: Optional[BenchmarkConfig] = None,
) -> Iterator[Tuple[int, int, TaskSet]]:
    """Yield ``(n, index, taskset)`` over the whole suite, deterministically.

    One child generator per ``(n, index)`` pair keeps the stream
    reproducible regardless of consumption order.
    """
    config = config or BenchmarkConfig()
    for n in task_counts:
        for index in range(benchmarks_per_count):
            rng = np.random.default_rng([seed, n, index])
            yield n, index, generate_control_taskset(n, rng, config=config)
