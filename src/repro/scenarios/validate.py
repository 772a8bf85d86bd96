"""Monte-Carlo simulation-vs-analysis validation of scenarios.

For every instance of a scenario, two independent verdicts are produced:

* **analytic** -- exact response-time analysis of the instance's
  *analysis view* gives the control task's ``(L, J)`` interface, and the
  task's linear stability bound ``L + a J <= b`` gives the verdict plus a
  signed slack;
* **simulated** -- the *simulation view* is scheduled by the discrete
  event simulator, the schedule is replayed against the control task's
  plant by the TrueTime-style co-simulator, and the verdict is whether
  the trajectory diverged (for plant-less sources, whether the observed
  ``(L, J)`` satisfies the bound).

The harness runs on the :mod:`repro.sweep` engine, so ``--jobs N``
distributes instances over processes while the canonical confusion
report stays byte-identical across job counts.  Cells:

============================  ==========================================
``stable_confirmed``          analytic stable, simulation converged
``divergence_predicted``      analytic unstable, simulation diverged
``conservative``              analytic unstable, simulation converged --
                              *expected* for a sufficient-only bound
``optimistic``                analytic stable, simulation diverged --
                              the dangerous cell
``unassigned``                the priority policy failed
``undesignable``              the plant's LQG design does not exist at
                              the drawn period
============================  ==========================================

``optimistic`` outside the scenario's near-boundary band fails a
``sound`` scenario's validation; inside the band (or under a ``stress``
scenario, whose perturbations deliberately break the analysis contract)
it is reported as a finding instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.api.service import task_verdict
from repro.control.lqg import design_lqg_for_plant
from repro.control.plants import get_plant
from repro.errors import NumericalError, RiccatiError
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.spec import ScenarioSpec, _name_key
from repro.sim.cosim import cosimulate_control_task
from repro.sim.fpps import simulate_fpps
from repro.sweep import SweepResult, SweepSpec, run_sweep
from repro.sweep.result import atomic_write_json, canonical_dumps

#: Confusion cells in rendering order.
CELLS = (
    "stable_confirmed",
    "divergence_predicted",
    "conservative",
    "optimistic",
    "unassigned",
    "undesignable",
)

_ENVELOPE_EPS = 1e-9


def _analytic_block(instance, record: Dict[str, Any]) -> Dict[str, Any]:
    """Exact interface + verdict of the control task (analysis view).

    Routed through the analysis façade; the record's slack convention for
    bound-less tasks (``inf``/``-inf`` by deadline) predates the façade
    and is preserved for report compatibility.  The ambient
    execution-plane memo answers repeated ``(task, hp-set)`` queries
    across a validation run's instances (bit-identical verdicts -- the
    implicit deadline matches the memo kernels' ``limit = period``).
    """
    from repro.exec.workerenv import worker_memo

    taskset = instance.analysis
    task = taskset.by_name(instance.control)
    verdict = task_verdict(
        task, taskset.higher_priority(task), memo=worker_memo()
    )
    times = verdict.times
    record["latency"] = float(verdict.latency)
    record["jitter"] = float(verdict.jitter)
    record["deadline_met"] = bool(verdict.deadline_met)
    bound = verdict.bound
    record["has_bound"] = bound is not None
    if bound is None:
        record["slack"] = math.inf if verdict.deadline_met else -math.inf
        record["rel_slack"] = record["slack"]
        record["analytic_stable"] = bool(verdict.deadline_met)
    else:
        record["slack"] = float(verdict.slack)
        record["rel_slack"] = float(verdict.rel_slack)
        record["analytic_stable"] = bool(verdict.stable)
    return {"times": times, "bound": bound}


def validate_instance(
    spec: ScenarioSpec,
    instance,
    *,
    horizon_periods: Optional[int] = None,
) -> Dict[str, Any]:
    """Run one instance through both pipelines; return a flat record."""
    record: Dict[str, Any] = {
        "index": instance.index,
        "assigned": bool(instance.assigned),
    }
    if not instance.assigned:
        record["cell"] = "unassigned"
        record["ok"] = True
        return record

    control = instance.control
    ctl_task = instance.analysis.by_name(control)
    record["n_tasks"] = len(instance.analysis)
    record["control"] = control
    record["period"] = float(ctl_task.period)
    record["plant"] = ctl_task.plant_name or ""

    analytic = _analytic_block(instance, record)
    bound = analytic["bound"]
    times = analytic["times"]

    band = spec.band
    near_boundary = bool(
        bound is not None
        and times.finite
        and abs(record["rel_slack"]) <= band
    )
    record["near_boundary"] = near_boundary

    # -- simulate the schedule ------------------------------------------------
    periods = horizon_periods if horizon_periods is not None else spec.horizon_periods
    horizon = periods * ctl_task.period
    rng_aux = np.random.default_rng(
        [instance.seed, _name_key(spec.name), instance.index, 1]
    )
    model = spec.execution_model(instance, rng_aux)
    trace = simulate_fpps(
        instance.simulation,
        horizon,
        execution_model=model,
        seed=instance.sim_seed,
    )
    responses = trace.response_times(control)
    record["sim_jobs"] = len(responses)
    if responses:
        record["observed_latency"] = float(min(responses))
        record["observed_jitter"] = float(max(responses) - min(responses))
    else:
        record["observed_latency"] = math.inf
        record["observed_jitter"] = 0.0

    # Envelope check: simulated responses inside the analytic [R^b, R^w].
    # Enforced only for sound scenarios -- stress perturbations break the
    # execution-time contract the envelope theorem assumes.
    envelope_ok = all(
        times.best - _ENVELOPE_EPS <= r <= times.worst + _ENVELOPE_EPS
        for r in responses
    )
    record["envelope_ok"] = bool(envelope_ok)
    record["envelope_enforced"] = not spec.stress

    # -- replay against the plant ---------------------------------------------
    filtered = trace
    for perturbation in spec.perturbations:
        filtered = perturbation.filter_trace(filtered, control, rng_aux)

    sim_divergent: Optional[bool] = None
    record["design_ok"] = True
    if ctl_task.plant_name:
        plant = get_plant(ctl_task.plant_name)
        try:
            design = design_lqg_for_plant(ctl_task.plant_name, ctl_task.period)
        except (RiccatiError, NumericalError):
            record["design_ok"] = False
        else:
            system = plant.state_space()
            result = cosimulate_control_task(
                instance.simulation,
                control,
                system,
                design,
                duration=horizon,
                x0=0.01 * np.ones(system.n_states),
                trace=filtered,
            )
            sim_divergent = bool(result.diverged)
            record["peak_output"] = float(result.peak_output)
    if sim_divergent is None and record["design_ok"]:
        # Plant-less (or fixture) source: judge the observed schedule-level
        # interface against the same bound the analysis used.
        if bound is None:
            sim_divergent = not responses
        elif not responses:
            sim_divergent = True
        else:
            sim_divergent = not bound.is_stable(
                record["observed_latency"], record["observed_jitter"]
            )
    record["sim_divergent"] = sim_divergent

    # -- confusion cell + verdict ---------------------------------------------
    if not record["design_ok"]:
        record["cell"] = "undesignable"
        record["ok"] = True
        return record
    if record["analytic_stable"]:
        cell = "optimistic" if sim_divergent else "stable_confirmed"
    else:
        cell = "divergence_predicted" if sim_divergent else "conservative"
    record["cell"] = cell

    ok = True
    if cell == "optimistic" and not spec.stress and not near_boundary:
        ok = False
    if record["envelope_enforced"] and not envelope_ok:
        ok = False
    record["ok"] = ok
    return record


def analytic_records(
    spec: ScenarioSpec, *, instances: int, seed: int = 7
) -> List[Dict[str, Any]]:
    """Analysis-side records of the first ``instances`` draws (no sim).

    Backs ``python -m repro scenarios run``: a cheap look at what a
    scenario generates and what the analytic pipeline says about it.
    """
    records: List[Dict[str, Any]] = []
    for index in range(instances):
        instance = spec.instance(index, seed)
        record: Dict[str, Any] = {
            "index": index,
            "assigned": bool(instance.assigned),
        }
        if instance.assigned:
            record["n_tasks"] = len(instance.analysis)
            record["control"] = instance.control
            record["period"] = float(
                instance.analysis.by_name(instance.control).period
            )
            _analytic_block(instance, record)
        records.append(record)
    return records


# ----------------------------------------------------------------------
# Sweep integration
# ----------------------------------------------------------------------


def _scenario_worker(
    item: Dict[str, int], params: Dict[str, Any], seed: int
) -> Dict[str, Any]:
    """Sweep worker: validate one instance of a registered scenario."""
    spec = get_scenario(params["scenario"])
    instance = spec.instance(item["index"], seed)
    return validate_instance(
        spec, instance, horizon_periods=params.get("horizon_periods")
    )


def sweep_spec(
    *,
    scenario: str = "smoke_single_loop",
    instances: int = 32,
    seed: int = 7,
    horizon_periods: Optional[int] = None,
    chunk_size: int = 8,
) -> SweepSpec:
    """Sweep description of one scenario's Monte-Carlo validation."""
    get_scenario(scenario)  # fail fast on unknown names
    params: Dict[str, Any] = {"scenario": scenario}
    if horizon_periods is not None:
        params["horizon_periods"] = horizon_periods
    return SweepSpec(
        name=f"scenario-{scenario}",
        worker=_scenario_worker,
        items=tuple({"index": i} for i in range(instances)),
        params=params,
        seed=seed,
        chunk_size=chunk_size,
    )


@dataclass(frozen=True)
class ScenarioValidation:
    """Aggregated confusion report of one scenario's validation run."""

    scenario: str
    seed: int
    n_instances: int
    band: float
    expectation: str
    cells: Dict[str, int]
    near_boundary: int
    disagreements: List[Dict[str, Any]]
    failures: List[Dict[str, Any]]
    canonical_sha256: str

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_report(self) -> Dict[str, Any]:
        """Canonical report dict (byte-identical across job counts)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "instances": self.n_instances,
            "band": self.band,
            "expectation": self.expectation,
            "cells": {cell: self.cells.get(cell, 0) for cell in CELLS},
            "near_boundary": self.near_boundary,
            "disagreements": self.disagreements,
            "failures": self.failures,
            "ok": self.ok,
            "canonical_sha256": self.canonical_sha256,
        }

    def report_json(self) -> str:
        """Deterministic JSON of :meth:`to_report`."""
        return canonical_dumps(self.to_report())

    def write(self, path: str) -> None:
        """Write the canonical report atomically (temp file + rename)."""
        atomic_write_json(path, self.to_report())

    def render(self) -> str:
        # Imported here: repro.experiments imports this module through the
        # runner registries, so a top-level import would be circular.
        from repro.experiments.report import format_table

        rows = [
            (cell, self.cells.get(cell, 0))
            for cell in CELLS
            if self.cells.get(cell, 0) or cell in CELLS[:4]
        ]
        table = format_table(
            ["cell", "instances"],
            rows,
            title=(
                f"Scenario {self.scenario!r}: simulation vs analysis over "
                f"{self.n_instances} instances ({self.expectation}, "
                f"band {self.band:g})"
            ),
        )
        lines = [table]
        lines.append(
            f"near-boundary instances: {self.near_boundary}; "
            f"reported disagreements: {len(self.disagreements)}; "
            f"failures: {len(self.failures)}"
        )
        for finding in self.disagreements[:10]:
            lines.append(f"  disagreement: {finding}")
        for failure in self.failures[:10]:
            lines.append(f"  FAILURE: {failure}")
        lines.append(f"verdict: {'OK' if self.ok else 'MISMATCH'}")
        return "\n".join(lines)


def _summarise(record: Dict[str, Any]) -> Dict[str, Any]:
    """Compact, canonical form of one record for the report lists."""
    entry = {
        "index": record["index"],
        "cell": record.get("cell", "unassigned"),
    }
    if "slack" in record:
        entry["slack"] = record["slack"]
    if record.get("near_boundary"):
        entry["near_boundary"] = True
    if record.get("envelope_enforced") and not record.get("envelope_ok", True):
        entry["envelope_violation"] = True
    return entry


def from_sweep(result: SweepResult) -> ScenarioValidation:
    """Build the confusion report from an executed/loaded sweep."""
    scenario = result.name.removeprefix("scenario-")
    spec = get_scenario(scenario)
    records = result.canonical_records()
    cells: Dict[str, int] = {}
    near_boundary = 0
    disagreements: List[Dict[str, Any]] = []
    failures: List[Dict[str, Any]] = []
    for record in records:
        cell = record.get("cell", "unassigned")
        cells[cell] = cells.get(cell, 0) + 1
        if record.get("near_boundary"):
            near_boundary += 1
        envelope_bad = record.get("envelope_enforced") and not record.get(
            "envelope_ok", True
        )
        if cell == "optimistic" or envelope_bad:
            if record.get("ok", True):
                disagreements.append(_summarise(record))
            else:
                failures.append(_summarise(record))
    return ScenarioValidation(
        scenario=scenario,
        seed=result.seed,
        n_instances=len(records),
        band=spec.band,
        expectation=spec.expectation,
        cells=cells,
        near_boundary=near_boundary,
        disagreements=disagreements,
        failures=failures,
        canonical_sha256=result.canonical_sha256(),
    )


def validate_scenario(
    scenario: str,
    *,
    instances: int = 32,
    seed: int = 7,
    horizon_periods: Optional[int] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    resume: bool = False,
) -> ScenarioValidation:
    """Monte-Carlo validate one registered scenario."""
    spec = sweep_spec(
        scenario=scenario,
        instances=instances,
        seed=seed,
        horizon_periods=horizon_periods,
    )
    result = run_sweep(spec, jobs=jobs, cache_dir=cache_dir, resume=resume)
    return from_sweep(result)


def validate_registry(
    *,
    instances: int = 16,
    seed: int = 7,
    horizon_periods: Optional[int] = None,
    jobs: int = 1,
) -> Dict[str, ScenarioValidation]:
    """Validate every registered scenario; returns name -> report."""
    return {
        name: validate_scenario(
            name,
            instances=instances,
            seed=seed,
            horizon_periods=horizon_periods,
            jobs=jobs,
        )
        for name in scenario_names()
    }


def run_scenarios(
    *,
    scenario: str = "smoke_single_loop",
    instances: int = 32,
    seed: int = 7,
    horizon_periods: Optional[int] = None,
    jobs: int = 1,
) -> ScenarioValidation:
    """Experiment-registry entry point (``render()``-able result)."""
    return validate_scenario(
        scenario,
        instances=instances,
        seed=seed,
        horizon_periods=horizon_periods,
        jobs=jobs,
    )
