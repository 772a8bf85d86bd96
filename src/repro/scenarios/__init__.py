"""Declarative scenario catalogue + Monte-Carlo validation harness.

The paper's thesis is about *populations* of designs, not single
instances: anomalies are rare, so demonstrating (or bounding) them needs
many scenarios.  This package turns "a scenario" into a first-class,
composable object:

* :mod:`~repro.scenarios.spec` -- :class:`ScenarioSpec` composes five
  orthogonal axes (task-set source, priority policy, execution-time
  model, perturbation injections, observed control task) into a seeded,
  reproducible generator of concrete instances.
* :mod:`~repro.scenarios.perturbations` -- the "what goes wrong" axis:
  bursty interference, transient overload, dropped actuations, priority
  shifts, WCET inflation, clock drift.
* :mod:`~repro.scenarios.registry` -- the named catalogue
  (``scenario_names()``), the extension point for workload-diversity
  work.
* :mod:`~repro.scenarios.validate` -- Monte-Carlo
  simulation-vs-analysis validation on the parallel sweep engine, with a
  canonical (job-count-independent) JSON confusion report.

CLI: ``python -m repro scenarios list | run | validate``.
"""

from repro.scenarios.perturbations import (
    BurstyInterference,
    ClockDrift,
    DroppedJobs,
    Perturbation,
    PriorityShift,
    TransientOverload,
    WcetInflation,
)
from repro.scenarios.registry import (
    all_scenarios,
    get_scenario,
    register,
    scenario_names,
)
from repro.scenarios.spec import (
    BenchmarkSource,
    FixedSource,
    ScenarioInstance,
    ScenarioSpec,
)
from repro.scenarios.validate import (
    ScenarioValidation,
    validate_instance,
    validate_registry,
    validate_scenario,
)
from repro.scenarios.workload import (
    drifting_request_stream,
    edited_model_request_stream,
    scenario_request_pool,
    scenario_run_json,
    scenario_run_payload,
)

__all__ = [
    "drifting_request_stream",
    "edited_model_request_stream",
    "scenario_request_pool",
    "scenario_run_json",
    "scenario_run_payload",
    "ScenarioSpec",
    "ScenarioInstance",
    "BenchmarkSource",
    "FixedSource",
    "Perturbation",
    "PriorityShift",
    "WcetInflation",
    "BurstyInterference",
    "TransientOverload",
    "DroppedJobs",
    "ClockDrift",
    "register",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
    "ScenarioValidation",
    "validate_instance",
    "validate_scenario",
    "validate_registry",
]
