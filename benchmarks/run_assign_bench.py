"""Record ``BENCH_assign.json``: the memoised search engine vs the seed loops.

The acceptance bar of the ``repro.search`` refactor, measured on the
benchmark census population (the paper's comparison workload -- every
algorithm on every instance):

* per algorithm, the engine's *logical* evaluation counts equal the seed
  scalar loops exactly (the paper's complexity metric is untouched), and
  all emitted assignments are byte-identical;
* the backtracking and exhaustive searches recompute >= 5x fewer
  predicates than they logically evaluate (cache hits answered by the
  shared per-instance :class:`repro.memo.AnalysisMemo`);
* the engine's wall-clock for the whole suite is measurably below the
  seed loops';
* the ``assign`` sweep's canonical records (assignments included) are
  byte-identical across ``--jobs`` levels.

The seed implementations are imported from the frozen reference module
the equivalence tests pin (``tests/search/_seed_reference.py``) -- one
source of truth for "what the seed did".

Usage::

    PYTHONPATH=src python benchmarks/run_assign_bench.py \
        --benchmarks 100 --jobs 1 0 --out BENCH_assign.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests", "search")
)
from _seed_reference import SEED_ALGORITHMS  # noqa: E402

from repro.benchgen.taskgen import generate_control_taskset  # noqa: E402
from repro.experiments.assign import (  # noqa: E402
    ALGORITHMS,
    DEFAULT_EXHAUSTIVE_MAX_N,
    sweep_spec,
)
from repro.memo import AnalysisMemo  # noqa: E402
from repro.search import run_strategy  # noqa: E402
from repro.sweep import resolve_jobs, run_sweep  # noqa: E402

TASK_COUNTS = (4, 6, 8)


def _population(benchmarks: int, seed: int):
    tasksets = {}
    for n in TASK_COUNTS:
        for index in range(benchmarks):
            rng = np.random.default_rng([seed, n, index])
            tasksets[(n, index)] = generate_control_taskset(n, rng)
    return tasksets


def _run_seed_suite(tasksets) -> Dict[str, Dict[str, Any]]:
    """Time the frozen seed loops, one cold run per algorithm/instance."""
    totals = {
        a: {"seconds": 0.0, "evaluations": 0, "assignments": {}}
        for a in ALGORITHMS
    }
    for (n, index), taskset in tasksets.items():
        for algorithm in ALGORITHMS:
            if algorithm == "exhaustive" and n > DEFAULT_EXHAUSTIVE_MAX_N:
                continue
            start = time.perf_counter()
            priorities, _, evaluations, _ = SEED_ALGORITHMS[algorithm](
                taskset
            )
            totals[algorithm]["seconds"] += time.perf_counter() - start
            totals[algorithm]["evaluations"] += evaluations
            totals[algorithm]["assignments"][f"{n}/{index}"] = priorities
    return totals


def _run_engine_suite(tasksets) -> Dict[str, Dict[str, Any]]:
    """Time the memoised engine: one shared context per instance."""
    totals = {
        a: {
            "seconds": 0.0,
            "evaluations": 0,
            "cache_hits": 0,
            "recomputations": 0,
            "assignments": {},
        }
        for a in ALGORITHMS
    }
    for (n, index), taskset in tasksets.items():
        memo = AnalysisMemo()
        for algorithm in ALGORITHMS:
            if algorithm == "exhaustive" and n > DEFAULT_EXHAUSTIVE_MAX_N:
                continue
            start = time.perf_counter()
            result = run_strategy(algorithm, taskset, memo=memo)
            totals[algorithm]["seconds"] += time.perf_counter() - start
            totals[algorithm]["evaluations"] += result.evaluations
            totals[algorithm]["cache_hits"] += result.cache_hits
            totals[algorithm]["recomputations"] += result.recomputations
            totals[algorithm]["assignments"][f"{n}/{index}"] = (
                result.priorities
            )
    return totals


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmarks", type=int, default=100,
                        help="benchmarks per task count (x3 counts)")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--jobs", type=int, nargs="+", default=[1, 0],
                        help="sweep job levels to hash (0 = auto/all cores)")
    parser.add_argument("--out", type=str, default="BENCH_assign.json")
    args = parser.parse_args()

    tasksets = _population(args.benchmarks, args.seed)
    print(f"population: {len(tasksets)} census benchmarks "
          f"(counts {TASK_COUNTS} x {args.benchmarks})")

    seed_totals = _run_seed_suite(tasksets)
    engine_totals = _run_engine_suite(tasksets)

    per_algorithm = {}
    for algorithm in ALGORITHMS:
        seed = seed_totals[algorithm]
        engine = engine_totals[algorithm]
        assert seed["evaluations"] == engine["evaluations"], algorithm
        assert seed["assignments"] == engine["assignments"], algorithm
        recomputed = engine["recomputations"]
        # logical / recomputed; with zero recomputations (fully cached)
        # the logical count itself is the factor's lower bound.
        factor = (
            None
            if engine["evaluations"] == 0
            else round(engine["evaluations"] / max(recomputed, 1), 2)
        )
        per_algorithm[algorithm] = {
            "logical_evaluations": engine["evaluations"],
            "cache_hits": engine["cache_hits"],
            "recomputations": recomputed,
            "recomputation_factor": factor,
            "seed_seconds": round(seed["seconds"], 3),
            "engine_seconds": round(engine["seconds"], 3),
            "assignments_byte_identical_to_seed": True,
        }
        print(
            f"{algorithm:>17}: {engine['evaluations']} logical evals, "
            f"{recomputed} recomputed, "
            f"seed {seed['seconds']:.2f}s -> engine {engine['seconds']:.2f}s"
        )

    # Sweep determinism: canonical records (assignments included) must be
    # byte-identical across job levels.
    spec = sweep_spec(
        task_counts=TASK_COUNTS,
        benchmarks=args.benchmarks,
        seed=args.seed,
    )
    sweep_runs = []
    for jobs in args.jobs:
        start = time.perf_counter()
        result = run_sweep(spec, jobs=jobs)
        sweep_runs.append(
            {
                "jobs": resolve_jobs(jobs),
                "wall_seconds": round(time.perf_counter() - start, 3),
                "canonical_sha256": result.canonical_sha256(),
            }
        )
        print(
            f"sweep jobs={sweep_runs[-1]['jobs']}: "
            f"{sweep_runs[-1]['wall_seconds']}s, "
            f"sha {sweep_runs[-1]['canonical_sha256'][:16]}"
        )
    shas = {run["canonical_sha256"] for run in sweep_runs}
    assert len(shas) == 1, f"assign sweep differs across jobs: {shas}"

    seed_suite_seconds = sum(
        t["seed_seconds"] for t in per_algorithm.values()
    )
    engine_suite_seconds = sum(
        t["engine_seconds"] for t in per_algorithm.values()
    )
    search_factors = [
        per_algorithm[a]["recomputation_factor"]
        for a in ("backtracking", "exhaustive")
    ]
    payload = {
        "workload": (
            f"census population, task counts {list(TASK_COUNTS)} x "
            f"{args.benchmarks} benchmarks, full algorithm suite per "
            "instance on one shared AnalysisMemo (exhaustive capped at "
            f"n <= {DEFAULT_EXHAUSTIVE_MAX_N}); generation excluded from "
            "the timed region"
        ),
        "cpu_count": os.cpu_count(),
        "per_algorithm": per_algorithm,
        "suite_seconds": {
            "seed": round(seed_suite_seconds, 3),
            "engine": round(engine_suite_seconds, 3),
            "speedup": round(seed_suite_seconds / engine_suite_seconds, 2),
        },
        "sweep_runs": sweep_runs,
        "acceptance": {
            "criterion": (
                ">= 5x fewer predicate recomputations for backtracking "
                "and exhaustive (logical counts seed-identical, cache "
                "hits excluded), lower suite wall-clock, assignments "
                "byte-identical across --jobs"
            ),
            "recomputation_factors": {
                "backtracking": per_algorithm["backtracking"][
                    "recomputation_factor"
                ],
                "exhaustive": per_algorithm["exhaustive"][
                    "recomputation_factor"
                ],
            },
            "jobs_deterministic": len(shas) == 1,
            "ok": (
                all(f is not None and f >= 5.0 for f in search_factors)
                and engine_suite_seconds < seed_suite_seconds
                and len(shas) == 1
            ),
        },
        "note": (
            "jobs > 1 on a single-CPU host measures process-pool "
            "overhead, not scaling (same caveat as BENCH_sweep.json)"
        ),
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload["acceptance"], indent=2))
    return 0 if payload["acceptance"]["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
