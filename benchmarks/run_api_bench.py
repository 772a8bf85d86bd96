"""Record ``BENCH_api.json``: ``analyze_batch`` vs the PR-1 batched path.

The façade's acceptance bar: pushing the census population of task sets
through ``repro.api.analyze_batch`` must stay within ~10 % of the raw
PR-1 batched validation path (``rta.popbatch.analyze_taskset``, the
per-set record-kernel pass, driven directly by the sweep engine) --
i.e. the typed report layer must not tax the hot loop.

Both paths analyse the *same* pre-generated population (census-protocol
benchmarks with valid backtracking assignments; generation and
assignment are excluded from the timed region), at each requested
``--jobs`` level.  The per-report canonical hashes are asserted
identical across job counts.

Usage::

    PYTHONPATH=src python benchmarks/run_api_bench.py \
        --benchmarks 200 --jobs 1 0 --out BENCH_api.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import sys
import time
from typing import Any, Dict, List

import numpy as np

from repro.api import ControlTaskSystem, analyze_batch
from repro.assignment.backtracking import assign_backtracking
from repro.benchgen.taskgen import generate_control_taskset
from repro.rta.popbatch import analyze_taskset
from repro.sweep import SweepSpec, resolve_jobs, run_sweep


def _population(
    benchmarks: int, task_counts=(4, 8, 12), seed: int = 424242
) -> List[ControlTaskSystem]:
    """Census-protocol task sets with valid assignments, pre-resolved."""
    systems: List[ControlTaskSystem] = []
    for n in task_counts:
        for index in range(benchmarks):
            rng = np.random.default_rng([seed, n, index])
            taskset = generate_control_taskset(n, rng)
            result = assign_backtracking(taskset, max_evaluations=100_000)
            if result.priorities is None:
                continue
            systems.append(
                ControlTaskSystem(
                    taskset=result.apply_to(taskset),
                    name=f"census-n{n}-{index}",
                )
            )
    return systems


def _legacy_worker(
    item: Dict[str, int], params: Dict[str, Any], seed: int
) -> Dict[str, Any]:
    """The pre-façade consumer glue: batched RTA + verdict, no report."""
    analysis = analyze_taskset(params["tasksets"][item["k"]])
    return {
        "k": item["k"],
        "stable": analysis.stable,
        "violating": list(analysis.violating),
    }


def _time_legacy(tasksets, jobs: int) -> Dict[str, Any]:
    spec = SweepSpec(
        name="api-bench-legacy",
        worker=_legacy_worker,
        items=tuple({"k": k} for k in range(len(tasksets))),
        params={"tasksets": tuple(tasksets)},
        chunk_size=32,
    )
    start = time.perf_counter()
    result = run_sweep(spec, jobs=jobs)
    wall = time.perf_counter() - start
    return {
        "jobs": resolve_jobs(jobs),
        "wall_seconds": round(wall, 3),
        "systems_per_second": round(len(tasksets) / wall, 1),
        "stable": sum(1 for r in result.records if r["stable"]),
    }


def _time_api(systems, jobs: int) -> Dict[str, Any]:
    # Pickle round trip drops the per-system memo caches (the façade's
    # __getstate__ contract), so every timed run analyses cold.
    systems = pickle.loads(pickle.dumps(systems))
    start = time.perf_counter()
    reports = analyze_batch(systems, jobs=jobs)
    wall = time.perf_counter() - start
    sha = hashlib.sha256(
        "\n".join(r.canonical_sha256() for r in reports).encode()
    ).hexdigest()
    return {
        "jobs": resolve_jobs(jobs),
        "path": "inline" if resolve_jobs(jobs) == 1 else "sweep-engine",
        "wall_seconds": round(wall, 3),
        "systems_per_second": round(len(systems) / wall, 1),
        "stable": sum(1 for r in reports if r.stable),
        "canonical_sha256": sha,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmarks", type=int, default=200,
                        help="benchmarks per task count (x3 counts)")
    parser.add_argument("--jobs", type=int, nargs="+", default=[1, 0],
                        help="job levels to time (0 = auto/all cores)")
    parser.add_argument("--out", type=str, default="BENCH_api.json")
    args = parser.parse_args()

    systems = _population(args.benchmarks)
    tasksets = [s.resolved_taskset() for s in systems]
    print(f"population: {len(systems)} valid census systems")

    runs = []
    for jobs in args.jobs:
        legacy = _time_legacy(tasksets, jobs)
        api = _time_api(systems, jobs)
        assert legacy["stable"] == api["stable"], (legacy, api)
        ratio = api["wall_seconds"] / legacy["wall_seconds"]
        runs.append(
            {
                "jobs": api["jobs"],
                "legacy_batched_path": legacy,
                "analyze_batch": api,
                "api_over_legacy_ratio": round(ratio, 3),
            }
        )
        print(
            f"jobs={api['jobs']}: legacy {legacy['systems_per_second']}/s, "
            f"analyze_batch {api['systems_per_second']}/s "
            f"(ratio {ratio:.3f})"
        )

    shas = {run["analyze_batch"]["canonical_sha256"] for run in runs}
    assert len(shas) == 1, f"reports differ across job counts: {shas}"

    payload = {
        "workload": (
            f"census population, {len(systems)} valid systems "
            f"(task counts 4/8/12 x {args.benchmarks} benchmarks); "
            "generation + assignment excluded from the timed region"
        ),
        "cpu_count": os.cpu_count(),
        "reports_canonical_sha256": runs[0]["analyze_batch"]["canonical_sha256"],
        "runs": runs,
        "acceptance": {
            "criterion": "analyze_batch within 10% of the PR-1 batched path",
            "worst_ratio": max(r["api_over_legacy_ratio"] for r in runs),
            "ok": all(r["api_over_legacy_ratio"] <= 1.10 for r in runs),
        },
        "note": (
            "jobs > 1 on a single-CPU host is process-pool overhead on "
            "both paths and not representative (same caveat as "
            "BENCH_sweep.json); re-measure pool scaling on a multi-core "
            "host"
        ),
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload["acceptance"], indent=2))
    return 0 if payload["acceptance"]["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
