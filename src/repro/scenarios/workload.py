"""Scenario-drawn request streams for the serving layer.

The serve benchmark and the daemon tests need request traffic that is
*diverse* -- different task counts, utilisations, perturbation
structures -- and *repetitive* -- real serving traffic
re-analyses the same designs, which is what the daemon's
content-addressed store exploits.  Instead of inventing a synthetic
model generator, the stream draws its systems from the scenario
catalogue: every registered :class:`~repro.scenarios.spec.ScenarioSpec`
already is a seeded generator of concrete, analysable task sets.

A stream is fully determined by ``(seed, scenario names, sizes)``; like
everything sweep-adjacent, two processes asking for the same stream get
the same models in the same order.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.api.model import ControlTaskSystem
from repro.benchgen.uunifast import uunifast
from repro.errors import ModelError
from repro.jittermargin.linearbound import LinearStabilityBound
from repro.rta.taskset import Task, TaskSet
from repro.scenarios.registry import get_scenario

#: Default scenarios behind a request stream: structurally different
#: sources (fixed single loop, benchmark draws, perturbed populations),
#: all with pre-assigned priorities so every request is analysable.
DEFAULT_STREAM_SCENARIOS = (
    "smoke_single_loop",
    "benchmark_baseline",
    "bursty_interference",
    "transient_overload",
    "wcet_inflation",
)


def scenario_request_pool(
    *,
    unique: int = 24,
    seed: int = 7,
    scenarios: Optional[Sequence[str]] = None,
) -> List[ControlTaskSystem]:
    """Distinct analysable systems drawn round-robin from the catalogue.

    Each pool entry is one scenario instance's *analysis* view wrapped as
    a :class:`ControlTaskSystem` (priorities as drawn, so serving costs
    no search).  Instances whose priority policy failed to assign are
    skipped -- the pool always reaches ``unique`` members.
    """
    if unique < 1:
        raise ModelError(f"pool needs >= 1 unique systems, got {unique}")
    names = tuple(scenarios) if scenarios else DEFAULT_STREAM_SCENARIOS
    specs = [get_scenario(name) for name in names]  # validates the names
    pool: List[ControlTaskSystem] = []
    index = 0
    # Round-robin over the scenarios; index walks each scenario's own
    # deterministic instance sequence.  The attempt cap turns a
    # pathological scenario set (every draw unassignable) into an error
    # instead of an unbounded re-search loop.
    max_attempts = max(50 * unique, 200)
    while len(pool) < unique:
        if index >= max_attempts:
            raise ModelError(
                f"could not draw {unique} analysable systems from "
                f"{list(names)} within {max_attempts} attempts "
                f"({len(pool)} found); are the scenarios assignable?"
            )
        spec = specs[index % len(specs)]
        instance = spec.instance(index // len(specs), seed)
        index += 1
        if not instance.assigned or instance.analysis is None:
            continue
        pool.append(
            ControlTaskSystem(
                taskset=instance.analysis,
                name=f"{instance.scenario}-{instance.index}",
                priority_policy="as_given",
            )
        )
    return pool


def edited_model_request_stream(
    n_requests: int,
    *,
    n_tasks: int = 44,
    edit_tail: int = 4,
    repeat_fraction: float = 0.25,
    utilization: float = 0.8,
    seed: int = 11,
) -> List[ControlTaskSystem]:
    """Near-identical request traffic: one base model, one-field edits.

    ROADMAP item 2's observed traffic shape, which whole-model caching
    cannot exploit: ``repeat_fraction`` of the requests (in expectation)
    re-submit an edit already seen earlier in the stream (these are
    content-addressed store hits), the rest submit a *fresh* one-WCET
    edit of the shared base model -- a store miss that still shares
    all-but-a-few ``(task, hp-set)`` subproblems with every earlier
    request.  Edits target the ``edit_tail`` lowest-priority tasks, so
    a warm :class:`~repro.memo.AnalysisMemo` replays the untouched head
    of the priority order and recomputes only the edited tail.

    Priorities are rate monotonic and baked into the models
    (``as_given``), so serving costs analysis, not search; determinism
    follows the stream conventions above.
    """
    if n_requests < 1:
        raise ModelError(f"stream needs >= 1 requests, got {n_requests}")
    if not (0.0 <= repeat_fraction <= 1.0):
        raise ModelError(
            f"repeat_fraction must be in [0, 1], got {repeat_fraction}"
        )
    if not (1 <= edit_tail <= n_tasks):
        raise ModelError(
            f"edit_tail must be in [1, n_tasks={n_tasks}], got {edit_tail}"
        )
    rng = np.random.default_rng([seed, 0xED17ED, n_tasks])
    shares = uunifast(n_tasks, utilization, rng)
    periods = rng.choice(
        [1.0, 2.0, 2.5, 4.0, 5.0, 8.0, 10.0, 20.0], size=n_tasks
    )
    # Rate monotonic, ties broken by index: shortest period -> highest
    # priority value (the repo-wide larger-is-higher convention).
    by_rate = sorted(range(n_tasks), key=lambda k: (periods[k], k))
    priorities = {k: n_tasks - rank for rank, k in enumerate(by_rate)}
    base: List[Task] = []
    for k, (share, period) in enumerate(zip(shares, periods)):
        wcet = min(max(float(share * period), 1e-6), float(period))
        stability = None
        if rng.uniform() < 0.7:
            stability = LinearStabilityBound(
                a=1.0 + float(rng.uniform(0.0, 1.5)),
                b=float(period) * float(rng.uniform(0.1, 1.2)),
            )
        base.append(
            Task(
                name=f"t{k}",
                period=float(period),
                wcet=wcet,
                bcet=0.4 * wcet,
                priority=priorities[k],
                stability=stability,
            )
        )
    tail = by_rate[::-1][:edit_tail]  # the edit_tail lowest-priority tasks
    stream: List[ControlTaskSystem] = []
    seen: List[ControlTaskSystem] = []
    for r in range(n_requests):
        if seen and rng.random() < repeat_fraction:
            stream.append(seen[int(rng.integers(len(seen)))])
            continue
        index = int(tail[int(rng.integers(len(tail)))])
        factor = float(rng.uniform(0.7, 0.999))
        tasks = [t.copy() for t in base]
        tasks[index] = replace(
            tasks[index], wcet=max(tasks[index].bcet, tasks[index].wcet * factor)
        )
        system = ControlTaskSystem(
            taskset=TaskSet(tasks),
            name=f"edited-{len(seen)}",
            priority_policy="as_given",
        )
        seen.append(system)
        stream.append(system)
    return stream


def drifting_request_stream(
    n_requests: int,
    *,
    n_tasks: int = 12,
    utilization: float = 0.55,
    inflation: float = 1.3,
    final_margin: float = 1.05,
    seed: int = 23,
) -> List[ControlTaskSystem]:
    """A WcetInflation-style stream whose stability margins drain away.

    The seeded drift workload behind the observability layer's
    verdict-drift detector (:mod:`repro.obs.detectors`): request ``k``
    is the shared base model with every WCET scaled by
    ``1 + (inflation - 1) * k / (n_requests - 1)`` -- a fleet of control
    loops whose execution times creep up in production.  The stability
    bounds are calibrated against the *fully inflated* endpoint:
    ``b = (L_final + a * J_final) * final_margin``, so every request in
    the stream stays analytically **stable** (the verdicts never flip)
    while the minimum relative slack decays from its generous baseline
    to ``~(final_margin - 1) / final_margin`` -- exactly the
    optimistic-drift precursor the detector watches for, with the late
    models flagged and revalidatable through the Monte-Carlo harness.

    Fully seed-determined like every stream here; all requests are
    distinct models (no repeats -- drift, not cache traffic).
    """
    if n_requests < 2:
        raise ModelError(f"drift stream needs >= 2 requests, got {n_requests}")
    if inflation <= 1.0:
        raise ModelError(f"inflation must be > 1, got {inflation}")
    if final_margin <= 1.0:
        raise ModelError(f"final_margin must be > 1, got {final_margin}")
    from repro.api.service import analyze

    rng = np.random.default_rng([seed, 0xD21F7, n_tasks])
    shares = uunifast(n_tasks, utilization, rng)
    periods = rng.choice(
        [1.0, 2.0, 2.5, 4.0, 5.0, 8.0, 10.0, 20.0], size=n_tasks
    )
    by_rate = sorted(range(n_tasks), key=lambda k: (periods[k], k))
    priorities = {k: n_tasks - rank for rank, k in enumerate(by_rate)}
    coefficients = [1.0 + float(rng.uniform(0.0, 1.0)) for _ in range(n_tasks)]

    def build(scale: float, bounds: Optional[List] = None) -> TaskSet:
        tasks = []
        for k, (share, period) in enumerate(zip(shares, periods)):
            wcet = min(max(float(share * period) * scale, 1e-6), float(period))
            tasks.append(
                Task(
                    name=f"t{k}",
                    period=float(period),
                    wcet=wcet,
                    bcet=0.4 * wcet,
                    priority=priorities[k],
                    stability=None if bounds is None else bounds[k],
                )
            )
        return TaskSet(tasks)

    # Calibrate each task's bound against the fully inflated endpoint:
    # stable everywhere in the stream, barely so at the end.
    final_report = analyze(
        ControlTaskSystem(
            taskset=build(inflation), name="drift-final", priority_policy="as_given"
        )
    )
    bounds: List[Optional[LinearStabilityBound]] = []
    for k, verdict in enumerate(final_report.verdicts):
        if not verdict.deadline_met:
            raise ModelError(
                "drift stream endpoint is unschedulable; lower utilization "
                f"or inflation (task {verdict.name} misses its deadline)"
            )
        a = coefficients[k]
        bounds.append(
            LinearStabilityBound(
                a=a,
                b=(verdict.latency + a * verdict.jitter) * final_margin,
            )
        )
    stream: List[ControlTaskSystem] = []
    for r in range(n_requests):
        scale = 1.0 + (inflation - 1.0) * r / (n_requests - 1)
        stream.append(
            ControlTaskSystem(
                taskset=build(scale, bounds),
                name=f"drift-{r}",
                priority_policy="as_given",
            )
        )
    return stream


def scenario_run_payload(
    name: str, *, instances: int, seed: int = 7
) -> Dict[str, Any]:
    """The ``scenarios run`` result as a versioned, serialisable record.

    What ``python -m repro scenarios run`` computes (the analytic
    records of the first ``instances`` draws), shaped for the serving
    layer: the daemon's ``POST /v1/scenarios/run`` response is exactly
    :func:`scenario_run_json` of this payload.
    """
    from repro.api.report import SCHEMA_VERSION
    from repro.scenarios.validate import analytic_records

    if instances < 1:
        raise ModelError(f"instances must be >= 1, got {instances}")
    spec = get_scenario(name)
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": spec.name,
        "instances": instances,
        "seed": seed,
        "records": analytic_records(spec, instances=instances, seed=seed),
    }


def scenario_run_json(name: str, *, instances: int, seed: int = 7) -> str:
    """Canonical JSON of :func:`scenario_run_payload` (the wire form)."""
    from repro.sweep.result import canonical_dumps

    return canonical_dumps(
        scenario_run_payload(name, instances=instances, seed=seed)
    )
