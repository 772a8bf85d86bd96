"""repro -- reproduction of "Anomalies in Scheduling Control Applications
and Design Complexity" (Amir Aminifar & Enrico Bini, DATE 2017).

The library spans the paper's whole pipeline:

* :mod:`repro.lti`, :mod:`repro.linalg` -- linear systems and the numerics
  under them (matrix exponentials, Van Loan sampling, Riccati/Lyapunov).
* :mod:`repro.control` -- plant database and sampled-data LQG design; the
  quadratic-cost-vs-period phenomenology of Fig. 2.
* :mod:`repro.jittermargin` -- stability curves ``J_max(L)`` and the linear
  constraint ``L + aJ <= b`` of eq. (5) / Fig. 4 (Jitter Margin toolbox
  substitute).
* :mod:`repro.rta` -- the task model and exact best-/worst-case
  response-time analyses of eqs. (2)-(4).
* :mod:`repro.sim` -- event-driven FPPS scheduler simulation and
  plant-in-the-loop co-simulation.
* :mod:`repro.assignment` -- the paper's case study: backtracking priority
  assignment (Algorithm 1) and the Unsafe Quadratic baseline, plus
  Audsley/exhaustive/heuristic references.
* :mod:`repro.anomalies` -- anomaly detectors, constructed instances, and
  the Monte-Carlo census.
* :mod:`repro.benchgen` -- the UUniFast-based benchmark protocol of sec. V.
* :mod:`repro.experiments` -- drivers regenerating every table and figure.

* :mod:`repro.api` -- **the unified analysis façade**: one typed entry
  point (:class:`ControlTaskSystem` -> :func:`analyze` ->
  :class:`AnalysisReport`) from system model to stability verdict, with
  a versioned canonical JSON schema and sweep-parallel
  :func:`analyze_batch`; :func:`assign` / :func:`assign_batch` add the
  assignment-quality pillar on the same schema.
* :mod:`repro.search` -- **the unified priority-assignment search
  engine**: all five algorithms as strategies over a shared
  :class:`AnalysisMemo` with a memoised ``(task, hp-set)`` subproblem
  cache and batched per-level kernels.
* :mod:`repro.memo` -- **the shared analysis-memo layer** (v1.4):
  :class:`AnalysisMemo` promotes the search engine's content-interned
  subproblem cache to a stack-wide, thread-safe, LRU-bounded layer;
  passing ``memo=`` to :func:`analyze`/:func:`assign` (or running the
  serve daemon) makes repeated analysis of near-identical models
  incremental while keeping reports byte-identical.

Quickstart::

    from repro import ControlTaskSystem, Task, TaskSet, analyze
    from repro import LinearStabilityBound

    system = ControlTaskSystem(
        taskset=TaskSet([
            Task("roll",  period=0.01, wcet=0.002, bcet=0.001,
                 stability=LinearStabilityBound(a=1.2, b=0.008)),
            Task("pitch", period=0.02, wcet=0.005, bcet=0.002,
                 stability=LinearStabilityBound(a=1.1, b=0.015)),
        ]),
        priority_policy="backtracking",
    )
    report = analyze(system)
    print(report.stable, report.task("roll").slack)
"""

from repro.api import (
    SCHEMA_VERSION,
    AnalysisReport,
    AssignmentOutcome,
    ControlTaskSystem,
    TaskVerdict,
    analyze,
    analyze_batch,
    assign,
    assign_batch,
    task_verdict,
    verdict_from_times,
)
from repro.memo import AnalysisMemo
from repro.search import AssignmentResult
from repro.errors import (
    DimensionError,
    ModelError,
    NumericalError,
    ReproError,
    RiccatiError,
    ScheduleError,
    UnstableLoopError,
)
from repro.jittermargin.linearbound import LinearStabilityBound
from repro.rta.taskset import Task, TaskSet

__version__ = "5.0.0"

__all__ = [
    # the analysis façade
    "ControlTaskSystem",
    "AnalysisReport",
    "TaskVerdict",
    "analyze",
    "analyze_batch",
    "task_verdict",
    "verdict_from_times",
    "SCHEMA_VERSION",
    # the assignment search engine + shared analysis memo
    "AnalysisMemo",
    "AssignmentOutcome",
    "AssignmentResult",
    "assign",
    "assign_batch",
    # the task model
    "Task",
    "TaskSet",
    "LinearStabilityBound",
    # errors
    "ReproError",
    "DimensionError",
    "ModelError",
    "NumericalError",
    "RiccatiError",
    "ScheduleError",
    "UnstableLoopError",
    "__version__",
]
