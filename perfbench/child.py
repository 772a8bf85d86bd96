"""One batch job in a fresh interpreter: the anomaly census or the
scenario validation.

Spawned by ``run.py`` with one JSON line on standard input::

    {"workload": "census" | "scenarios", "seed": <workload seed>,
     "jobs": 1 | 2, "trace": bool, "setup_only": bool, "spot_check": bool,
     "out": <result file>}

It prints ``ready`` once its imports are done (the parent times spawn to
``ready`` as set-up), runs the job, and writes its result file.  With
``trace`` it wraps the public functions of each layer first; spans stay
in memory and go into the result file at the end.

A speed probe (``probe.py``) samples the CPU during the imports and the
job -- in this process at ``jobs == 1``, in the pool's workers otherwise
-- and the result file carries the probe's summary for each of the two.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from probe import SpeedProbe, probe_forked_workers, read_worker_samples  # noqa: E402
from stats import trimmed_mean  # noqa: E402
from tracer import Tracer, self_times, to_rows  # noqa: E402

#: Scenarios validated by the ``scenarios`` workload, one sound and one
#: stress scenario (its perturbations filter the simulated trace).
SCENARIOS = ("benchmark_baseline", "transient_overload")
SCENARIO_INSTANCES = 8
CENSUS_BENCHMARKS = 334  # per task count: 3 x 334 = 1002 task sets
SPOT_CHECKS = 12
_KINDS = ("priority_raise", "wcet_decrease", "period_increase")


def _import_layers(workload: str) -> None:
    if workload == "census":
        import repro.experiments.census  # noqa: F401
        import repro.sweep  # noqa: F401
    else:
        import repro.scenarios.validate  # noqa: F401
    import repro.exec.backends  # noqa: F401


def install_tracing(tracer: Tracer, counts: Dict[str, float]) -> None:
    """Wrap each layer's entry points where their callers look them up."""
    import repro.anomalies.census as anomalies_census
    import repro.anomalies.detectors as detectors
    import repro.benchgen.taskgen as taskgen
    import repro.control.lqg as lqg
    import repro.experiments.census as census
    import repro.jittermargin.linearbound as linearbound
    import repro.rta.popbatch as popbatch
    import repro.scenarios.spec as scenario_spec
    import repro.scenarios.validate as validate
    from repro.sweep.result import SweepResult

    def add(name: str, amount: float) -> None:
        counts[name] = counts.get(name, 0) + amount

    def searched(result, *args, **kwargs) -> None:
        add("search.evaluations", result.evaluations)
        add("search.cache_hits", result.cache_hits)

    def problems(result, batch, *args, **kwargs) -> None:
        add("rta.pop_problems", len(batch))

    def population(result, tasksets, *args, **kwargs) -> None:
        add("rta.pop_problems", sum(len(ts) for ts in tasksets))

    def simulated(result, *args, **kwargs) -> None:
        add("sim.jobs", len(result.records))

    tracer.patch(census, "census_benchmark", "census.item",
                 item_of=lambda n, index, **kw: [n, index])
    tracer.patch(census, "run_sweep", "sweep")
    tracer.patch(validate, "run_sweep", "sweep")
    tracer.patch(SweepResult, "canonical_sha256", "sweep.serialize")
    tracer.patch(anomalies_census, "generate_control_taskset", "benchgen.generate")
    tracer.patch(taskgen, "generate_control_taskset", "benchgen.generate")
    tracer.patch(linearbound, "_cached_bound", "jittermargin.bound")
    tracer.patch(linearbound, "design_lqg", "control.lqg")
    tracer.patch(lqg, "design_lqg", "control.lqg")
    tracer.patch(linearbound, "stability_curve", "jittermargin.curve")
    tracer.patch(anomalies_census, "assign_backtracking", "assignment.backtracking",
                 on_result=searched)
    tracer.patch(anomalies_census, "all_anomalies", "anomalies.detectors")
    tracer.patch(detectors, "evaluate_problems", "rta.pop", on_result=problems)
    tracer.patch(popbatch, "evaluate_problems", "rta.pop", on_result=problems)
    tracer.patch(popbatch, "analyze_population", "rta.pop", on_result=population)
    tracer.patch(scenario_spec.ScenarioSpec, "instance", "scenarios.instance",
                 item_of=lambda spec, index, seed: index)
    tracer.patch(validate, "validate_instance", "scenarios.item",
                 item_of=lambda spec, instance, **kw: instance.index)
    tracer.patch(validate, "simulate_fpps", "sim.fpps", on_result=simulated)
    tracer.patch(validate, "cosimulate_control_task", "sim.cosim")
    tracer.patch(validate, "task_verdict", "api.verdict")


def census_job(seed: int, jobs: int) -> Dict[str, Any]:
    import repro.experiments.census as census

    spec = census.sweep_spec(benchmarks=CENSUS_BENCHMARKS, seed=seed)
    start = time.perf_counter()
    # Looked up on the module so a traced run goes through its wrapper.
    result = census.run_sweep(spec, jobs=jobs)
    sha = result.canonical_sha256()
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "items": spec.n_items, "shas": [sha], "ok": True,
            "result": result, "spec": spec}


def spot_check(spec, result) -> List[str]:
    """Recompute sampled task sets directly and compare with the sweep.

    Independent of the sweep worker and the execution plane: each
    sampled record must equal the census of its task set computed by
    ``census_benchmark`` in this process.
    """
    from repro.anomalies.census import census_benchmark

    by_index = {record["i"]: record for record in result.records}
    errors = []
    for i in random.Random(spec.seed).sample(range(spec.n_items), SPOT_CHECKS):
        item = spec.items[i]
        single = census_benchmark(item["n"], item["index"], seed=spec.seed)
        expected = {"n": item["n"], "index": item["index"],
                    "feasible": single.feasible}
        for kind in _KINDS:
            expected[f"{kind}_checked"] = single.moves_checked.get(kind, 0)
            expected[f"{kind}_anomalous"] = single.count(kind)
            expected[f"{kind}_destabilising"] = single.destabilising_count(kind)
        got = {key: by_index[i].get(key) for key in expected}
        if got != expected:
            errors.append(f"item {i}: sweep {got} != direct {expected}")
    return errors


def census_invariants(spec, result) -> List[str]:
    """Checks on every record that need no recomputation.

    Records come back in item order, one per task set; a feasible set
    checks ``n - 1`` priority raises and ``n (n - 1) / 2`` moves of each
    interferer kind, an infeasible one none; destabilising moves are a
    subset of the anomalous ones.
    """
    errors = []
    if len(result.records) != spec.n_items:
        return [f"{len(result.records)} records for {spec.n_items} task sets"]
    for i, (item, record) in enumerate(zip(spec.items, result.records)):
        n = item["n"]
        pairs = n * (n - 1) // 2 if record["feasible"] else 0
        checked = {"priority_raise": n - 1 if record["feasible"] else 0,
                   "wcet_decrease": pairs, "period_increase": pairs}
        broken = (record["i"] != i or record["n"] != n
                  or record["index"] != item["index"]
                  or any(record[f"{kind}_checked"] != checked[kind]
                         or not 0 <= record[f"{kind}_destabilising"]
                         <= record[f"{kind}_anomalous"]
                         for kind in _KINDS))
        if broken:
            errors.append(f"item {i}: record {record} breaks the census invariants")
    return errors


def scenarios_job(seed: int, jobs: int) -> Dict[str, Any]:
    from repro.scenarios.validate import validate_scenario

    start = time.perf_counter()
    reports = [
        validate_scenario(name, instances=SCENARIO_INSTANCES, seed=seed, jobs=jobs)
        for name in SCENARIOS
    ]
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "items": sum(report.n_instances for report in reports),
        "shas": [report.canonical_sha256 for report in reports],
        "ok": all(report.ok and report.n_instances == SCENARIO_INSTANCES
                  for report in reports),
    }


def layer_metrics(tracer: Tracer, counts: Dict[str, float]) -> Dict[str, float]:
    from repro.jittermargin.linearbound import _cached_bound

    selfs = self_times(tracer.spans)
    metrics = {f"{name}_s": seconds for name, seconds in selfs.items()}
    info = _cached_bound.cache_info()
    lookups = info.hits + info.misses
    metrics["jittermargin.bound_misses"] = info.misses
    metrics["jittermargin.bound_hit_ratio"] = info.hits / lookups if lookups else 0.0
    evaluations = counts.get("search.evaluations", 0)
    metrics["search.evaluations"] = evaluations
    metrics["memo.hit_ratio"] = (
        counts.get("search.cache_hits", 0) / evaluations if evaluations else 0.0
    )
    metrics["rta.pop_problems"] = counts.get("rta.pop_problems", 0)
    metrics["sim.jobs"] = counts.get("sim.jobs", 0)
    return metrics


def probe_summary(samples: List[float]) -> Dict[str, float]:
    """Sample count, trimmed-mean kernel time and total probe time."""
    return {"n": len(samples),
            "kernel_s": trimmed_mean(samples) if samples else 0.0,
            "busy_s": sum(samples)}


def main() -> int:
    probe = SpeedProbe().start()
    options = json.loads(sys.stdin.readline())
    workload = options["workload"]
    _import_layers(workload)
    import_seconds = time.perf_counter() - _STARTED
    setup_probe = probe_summary(probe.between(0.0, time.perf_counter()))
    print("ready", flush=True)
    if options.get("setup_only"):
        probe.stop()
        with open(options["out"], "w") as handle:
            json.dump({"setup_probe": setup_probe}, handle)
        return 0

    tracer: Optional[Tracer] = Tracer() if options.get("trace") else None
    counts: Dict[str, float] = {}
    if tracer is not None:
        install_tracing(tracer, counts)
    jobs = options["jobs"]
    workers = options["out"] + ".probe-"
    if jobs > 1:
        # The work runs in the pool's workers; this process only waits.
        probe.stop()
        probe_forked_workers(workers)
    job = census_job if workload == "census" else scenarios_job
    started = time.perf_counter()
    outcome = job(options["seed"], jobs)
    ended = time.perf_counter()
    probe.stop()
    job_probe = probe_summary(
        probe.between(started, ended) if jobs == 1
        else read_worker_samples(workers, started, ended)
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()

    from repro.exec.backends import backend_for_jobs

    errors: List[str] = [] if outcome["ok"] else ["job reported a failure"]
    if workload == "census":
        errors += census_invariants(outcome["spec"], outcome["result"])
        if options.get("spot_check"):
            errors += spot_check(outcome["spec"], outcome["result"])
    payload = {
        "import_s": import_seconds,
        "seconds": outcome["seconds"],
        "items": outcome["items"],
        "shas": outcome["shas"],
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "setup_probe": setup_probe,
        "job_probe": job_probe,
        "exec": backend_for_jobs(jobs).stats(),
    }
    if tracer is not None:
        payload["layers"] = layer_metrics(tracer, counts)
        payload["spans"] = to_rows(tracer.spans)
    with open(options["out"], "w") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
