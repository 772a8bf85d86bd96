"""Record ``BENCH_sweep.json``: census sweep timing, phased and tiered.

Runs the anomaly census (the heaviest sweep: generate + assign + three
detector passes per task set) and records two views:

* **runs** -- wall-clock at each requested ``--jobs`` level through
  ``python -m repro sweep census`` in a fresh interpreter per
  configuration (cold caches, honest numbers), with the canonical
  SHA-256 of each run asserted identical across levels;
* **phases** -- one in-process jobs-1 run with the worker's stages
  timed individually: task-set generation + LQG design + stability
  curves (the frequency-domain/margin work), the backtracking
  assignment (RTA fixed points via the memo kernels), the anomaly
  detector passes (RTA re-analysis of perturbed sets), and canonical
  serialization of the artifact.

Usage::

    PYTHONPATH=src python benchmarks/run_sweep_bench.py \
        --benchmarks 334 --jobs 1 4 --out BENCH_sweep.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

#: Measured on the seed implementation (serial loops, per-frequency-point
#: resolvent solves) before this subsystem landed: 103.78 s for 50 census
#: benchmarks at n = 8 on this container -- 2.076 s per benchmark.
SEED_SECONDS_PER_BENCHMARK = 2.076


def run_one(benchmarks: int, jobs: int) -> dict:
    """Run the census sweep in a fresh interpreter; return timing + sha."""
    with tempfile.TemporaryDirectory() as tmp:
        artifact = os.path.join(tmp, f"census-j{jobs}.json")
        argv = [
            sys.executable,
            "-m",
            "repro",
            "sweep",
            "census",
            "--benchmarks",
            str(benchmarks),
            "--jobs",
            str(jobs),
            "--out",
            artifact,
            # fresh per run: runs start cold, but workers of one run share
            # the kernel memo instead of each rebuilding it
            "--cache-dir",
            os.path.join(tmp, "cache"),
        ]
        start = time.perf_counter()
        subprocess.run(argv, check=True, capture_output=True)
        wall = time.perf_counter() - start
        with open(artifact) as handle:
            data = json.load(handle)
    return {
        "jobs": jobs,
        "wall_seconds": round(wall, 2),
        "engine_seconds": round(data["meta"]["elapsed_seconds"], 2),
        "n_items": data["meta"]["n_items"],
        "canonical_sha256": data["canonical_sha256"],
    }


def run_phases(benchmarks: int) -> dict:
    """One in-process jobs-1 census with the worker stages timed.

    The patched callables add one ``perf_counter`` pair around each
    stage -- the work itself (and therefore the artifact) is unchanged.
    """
    import repro.anomalies.census as census_mod
    from repro.experiments.census import sweep_spec
    from repro.sweep import run_sweep

    phases = {"generate_lqg_margin": 0.0, "assign_rta": 0.0, "detectors_rta": 0.0}

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                phases[name] += time.perf_counter() - start

        return wrapper

    originals = (
        census_mod.generate_control_taskset,
        census_mod.assign_backtracking,
        census_mod.all_anomalies,
    )
    census_mod.generate_control_taskset = timed(
        "generate_lqg_margin", originals[0]
    )
    census_mod.assign_backtracking = timed("assign_rta", originals[1])
    census_mod.all_anomalies = timed("detectors_rta", originals[2])
    try:
        with tempfile.TemporaryDirectory() as tmp:
            start = time.perf_counter()
            result = run_sweep(
                sweep_spec(benchmarks=benchmarks),
                cache_dir=os.path.join(tmp, "cache"),
                jobs=1,
            )
            sweep_seconds = time.perf_counter() - start
            start = time.perf_counter()
            result.write(os.path.join(tmp, "census.json"))
            phases["serialize"] = time.perf_counter() - start
    finally:
        (
            census_mod.generate_control_taskset,
            census_mod.assign_backtracking,
            census_mod.all_anomalies,
        ) = originals

    accounted = sum(phases.values())
    return {
        "note": (
            "in-process jobs-1 run, stages timed inside the census worker; "
            "generate includes LQG design + stability-curve margins "
            "(the frequency-domain work), assign/detectors are RTA via "
            "the memo kernels, serialize is the canonical artifact write"
        ),
        "sweep_seconds": round(sweep_seconds, 2),
        "phase_seconds": {k: round(v, 2) for k, v in phases.items()},
        "engine_other_seconds": round(
            sweep_seconds + phases["serialize"] - accounted, 2
        ),
        "canonical_sha256": result.canonical_sha256(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmarks", type=int, default=334,
                        help="benchmarks per task count (x3 counts)")
    parser.add_argument("--jobs", type=int, nargs="+", default=[1, 4])
    parser.add_argument("--out", type=str, default="BENCH_sweep.json")
    args = parser.parse_args()

    runs = [run_one(args.benchmarks, jobs) for jobs in args.jobs]
    phases = run_phases(args.benchmarks)
    shas = {run["canonical_sha256"] for run in runs}
    shas.add(phases["canonical_sha256"])
    assert len(shas) == 1, f"canonical output differs across runs: {shas}"

    n_items = runs[0]["n_items"]
    baseline = runs[0]["wall_seconds"]
    payload = {
        "workload": (
            f"anomaly census, {n_items} task sets "
            f"(task counts 4/8/12 x {args.benchmarks} benchmarks)"
        ),
        "cpu_count": os.cpu_count(),
        "canonical_sha256": runs[0]["canonical_sha256"],
        "runs": runs,
        "phases": phases,
        "seed_reference": {
            "seconds_per_benchmark": SEED_SECONDS_PER_BENCHMARK,
            "extrapolated_seconds": round(
                SEED_SECONDS_PER_BENCHMARK * n_items, 1
            ),
            "note": (
                "seed implementation (pre-sweep-engine, pre-vectorised "
                "frequency response), measured at n=8 x 50 benchmarks "
                "on this container"
            ),
        },
        "previous_reference": {
            "wall_seconds_jobs1": 20.7,
            "note": (
                "pre-population-kernel implementation (within-set batch "
                "tier only), recorded in this file before the stacked "
                "population tier landed"
            ),
        },
        "speedup_vs_seed": {
            str(run["jobs"]): round(
                SEED_SECONDS_PER_BENCHMARK * n_items / run["wall_seconds"], 2
            )
            for run in runs
        },
        "speedup_vs_previous": {
            str(run["jobs"]): round(20.7 / run["wall_seconds"], 2)
            for run in runs
        },
        "speedup_vs_jobs1": {
            str(run["jobs"]): round(baseline / run["wall_seconds"], 2)
            for run in runs
        },
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
