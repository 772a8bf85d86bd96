"""The analysis service: system model in, stability verdict out.

Three altitudes, one pipeline (RTA -> (L, J) interface -> jitter-margin
verdict):

* :func:`verdict_from_times` -- the (L, J) -> margin step alone, for
  callers that computed response times through a different supply model
  (the periodic-server analysis);
* :func:`task_verdict` -- exact single-task analysis against an explicit
  higher-priority set (the anomaly detectors' and scenario harness's
  entry point);
* :func:`analyze` -- a whole :class:`~repro.api.model.ControlTaskSystem`
  through the per-set record-kernel pass of :mod:`repro.rta.popbatch`,
  returning a frozen :class:`~repro.api.report.AnalysisReport` (memoised per
  system);
* :func:`analyze_batch` -- many systems on the :mod:`repro.sweep` engine,
  with the engine's jobs-independent determinism, chunk cache, and
  resume.

Every consumer package routes its stability plumbing through one of these
instead of re-deriving interface + slack + verdict locally.

Incremental analysis (v1.4): :func:`analyze`, :func:`analyze_batch`,
:func:`assign`, and :func:`assign_batch` accept a uniform optional
``memo=`` argument -- a shared :class:`repro.memo.AnalysisMemo` that
routes every per-task RTA -> (L, J) evaluation through the
content-interned subproblem memo.  Reports and outcomes are
byte-identical to the fresh computation (the memo evaluates in the same
task-set order as the scalar contract); what changes is the cost: a
system differing from an already-analysed one in a single task pays only
for the subproblems whose ``(task, hp-set)`` key is actually new.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.api import wire
from repro.api.model import ControlTaskSystem, as_system
from repro.api.report import SCHEMA_VERSION, AnalysisReport, TaskVerdict
from repro.errors import ModelError
from repro.exec.workerenv import worker_memo
from repro.memo import AnalysisMemo
from repro.rta.interface import ResponseTimes, latency_jitter
from repro.rta.popbatch import _analyze_population
from repro.rta.taskset import Task, TaskSet
from repro.search.engine import run_strategy
from repro.search.result import AssignmentResult
from repro.search.strategies import STRATEGIES


def verdict_from_times(task: Task, times: ResponseTimes) -> TaskVerdict:
    """Judge a task whose response times were computed elsewhere.

    This is the (L, J) -> margin half of the pipeline on its own: the
    server-design search feeds it interfaces from the periodic-resource
    analysis; anything with eq. (2)-shaped times can use it.
    """
    return TaskVerdict(
        name=task.name,
        period=task.period,
        wcet=task.wcet,
        bcet=task.bcet,
        priority=task.priority,
        times=times,
        bound=task.stability,
    )


def task_verdict(
    task: Task,
    higher_priority: Sequence[Task],
    *,
    deadline: Optional[float] = None,
    memo: Optional[AnalysisMemo] = None,
) -> TaskVerdict:
    """Exact verdict of one task against an explicit hp-set.

    Runs the scalar response-time analyses (identical numerics to the
    pre-façade per-task plumbing, which the detector/scenario pinned
    outputs rely on), then applies the task's stability bound.

    ``memo`` answers the query from a shared
    :class:`~repro.memo.AnalysisMemo` instead.  Only the implicit
    deadline is memoisable -- the memo kernels evaluate with
    ``limit = period``, exactly :func:`latency_jitter`'s default -- so
    an explicit ``deadline`` always takes the scalar path.  The verdict
    is bit-identical either way (the memo kernel pin).
    """
    if memo is not None and deadline is None:
        run = memo.run()
        best, worst = run.times_ids(
            memo.intern(task), memo.intern_all(higher_priority)
        )
        times = ResponseTimes(best=best, worst=worst)
    else:
        times = latency_jitter(task, higher_priority, deadline=deadline)
    return verdict_from_times(task, times)


def analyze(
    system: Union[ControlTaskSystem, TaskSet],
    *,
    name: str = "system",
    memo: Optional[AnalysisMemo] = None,
) -> AnalysisReport:
    """Analyse one system: the façade's headline entry point.

    Accepts a :class:`ControlTaskSystem` (bounds derived from plant
    bindings, priority policy applied, result memoised on the instance)
    or a bare prioritised :class:`TaskSet`.  Every task is one row of
    the set's population stack against its hp mask (the unchecked core
    of :func:`repro.rta.popbatch.analyze_population`: ``resolved_taskset``
    has checked the priorities).

    Passing a shared :class:`~repro.memo.AnalysisMemo` via ``memo=``
    makes repeated analysis of *near*-identical systems incremental:
    only tasks whose ``(task, hp-set)`` subproblem is new are recomputed
    (one WCET edit of an n-task model costs ~1 task, not n).  The report
    is byte-identical either way -- the memo evaluates each task against
    its hp-set in the same task-set order as the scalar contract.
    """
    system = as_system(system, name=name)
    cached = system.__dict__.get("_cache_report")
    if cached is not None:
        return cached
    taskset = system.resolved_taskset()  # priorities checked here
    if memo is not None:
        (analysis,) = memo._population_analysis([taskset])
    else:
        (analysis,) = _analyze_population([taskset])
    return _finish_report(system, taskset, analysis)


def _finish_report(system, taskset, analysis) -> AnalysisReport:
    """Assemble, memoise, and return one system's report."""
    times = analysis.times
    # Positional, in field order: a quarter cheaper than keywords, and
    # paid once per task of every served report.
    verdicts = tuple(
        TaskVerdict(
            task.name,
            task.period,
            task.wcet,
            task.bcet,
            task.priority,
            times[task.name],
            task.stability,
        )
        for task in taskset
    )
    report = AnalysisReport(
        name=system.name,
        priority_policy=system.priority_policy,
        verdicts=verdicts,
    )
    object.__setattr__(system, "_cache_report", report)
    return report


@dataclass(frozen=True)
class AssignmentOutcome:
    """Outcome of :func:`assign`: the search result plus its validation.

    ``result`` is the raw :class:`~repro.search.result.AssignmentResult`
    (priorities, logical evaluation count, cache hits, backtracks);
    ``report`` is the full :class:`~repro.api.report.AnalysisReport` of
    the *assigned* system (``None`` when the algorithm found no
    assignment); ``system`` is the assigned system itself, ready for
    further analysis or serialisation (priorities baked in, policy
    ``as_given``).
    """

    name: str
    algorithm: str
    result: AssignmentResult
    system: Optional[ControlTaskSystem]
    report: Optional[AnalysisReport]

    @property
    def assigned(self) -> bool:
        return self.result.priorities is not None

    @property
    def ok(self) -> bool:
        """An assignment was found and independently validates as stable.

        Stricter than the algorithm's own belief: an Unsafe Quadratic
        commit past a violation assigns but is not ``ok``.
        """
        return self.report is not None and self.report.stable

    def to_dict(self) -> Dict[str, Any]:
        """Versioned, canonical-JSON-ready record of the outcome."""
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "algorithm": self.algorithm,
            "assigned": self.assigned,
            "ok": self.ok,
            "assignment": self.result.to_dict(),
            "report": None if self.report is None else self.report.to_dict(),
        }

    def outcome_json(self) -> str:
        """Canonical JSON of the outcome (sorted keys, compact, sentinels).

        The serialisation the serve layer ships over the wire: identical
        outcomes -- computed directly, batched, or replayed from the
        daemon's content-addressed store -- are byte-identical here.
        One typed pass (:func:`repro.api.wire.outcome_json`), equal to
        ``canonical_dumps(self.to_dict())``.
        """
        return wire.outcome_json(self)

    def canonical_sha256(self) -> str:
        """Hash of the outcome's canonical JSON form (wall-clock excluded)."""
        return hashlib.sha256(self.outcome_json().encode("utf-8")).hexdigest()

    def render(self) -> str:
        result = self.result
        header = (
            f"assign {self.name!r}: algorithm {self.algorithm}, "
            f"{result.evaluations} evaluations "
            f"({result.cache_hits} cached, {result.backtracks} backtracks)"
        )
        if self.report is None:
            return header + "\n  no valid priority assignment found"
        return header + "\n\n" + self.report.render()


def assign(
    system: Union[ControlTaskSystem, TaskSet],
    *,
    algorithm: Optional[str] = None,
    name: str = "system",
    memo: Optional[AnalysisMemo] = None,
    validation_memo: Optional[AnalysisMemo] = None,
    **options,
) -> AssignmentOutcome:
    """Search a priority assignment for a system, then validate it.

    The assignment-quality counterpart of :func:`analyze`: resolves the
    system's stability bounds (deriving plant-bound tasks as usual), runs
    the requested :mod:`repro.search` strategy, and -- when an assignment
    is found -- analyses the assigned system so the outcome carries both
    the search metrics and the independent per-task verdicts.

    ``algorithm`` defaults to the system's ``priority_policy`` when that
    names a search algorithm, else ``"backtracking"`` (the paper's
    Algorithm 1).  ``memo`` shares an :class:`~repro.memo.AnalysisMemo`
    across calls: both the strategy's search tree and the validation
    analysis route through it.  Note that a warm search memo is visible
    in the outcome (``result.cache_hits`` is part of the canonical
    record); callers that need outcomes byte-identical to cold calls but
    still want incremental *validation* pass ``validation_memo`` instead,
    which routes only the post-search :func:`analyze` (the serve daemon's
    mode).  ``options`` pass through to the strategy (e.g.
    ``max_evaluations``).
    """
    system = as_system(system, name=name)
    if algorithm is None:
        algorithm = (
            system.priority_policy
            if system.priority_policy in STRATEGIES
            else "backtracking"
        )
    if algorithm not in STRATEGIES:
        raise ModelError(
            f"unknown assignment algorithm {algorithm!r}; "
            f"known: {sorted(STRATEGIES)}"
        )
    if memo is not None and validation_memo is not None:
        raise ModelError(
            "memo= already routes the validation analysis; "
            "validation_memo= is for memo-less (wire-stable) calls only"
        )
    taskset = system.bound_taskset()
    result = run_strategy(algorithm, taskset, memo=memo, **options)
    if result.priorities is None:
        return AssignmentOutcome(
            name=system.name,
            algorithm=algorithm,
            result=result,
            system=None,
            report=None,
        )
    assigned_system = ControlTaskSystem(
        taskset=result.apply_to(taskset),
        name=system.name,
        priority_policy="as_given",
    )
    return AssignmentOutcome(
        name=system.name,
        algorithm=algorithm,
        result=result,
        system=assigned_system,
        report=analyze(
            assigned_system,
            memo=memo if memo is not None else validation_memo,
        ),
    )


def _assign_worker(
    item: Dict[str, int], params: Dict[str, Any], seed: int
) -> Dict[str, Any]:
    """Sweep worker: assign + validate one system of the batch (by index).

    The ambient worker-lifetime memo feeds *validation only*: the search
    itself always runs cold, because a warm search memo would change the
    outcome's canonical ``cache_hits`` field across workers and runs.
    """
    outcome = assign(
        params["systems"][item["k"]],
        algorithm=params.get("algorithm"),
        validation_memo=worker_memo(),
        **params.get("options", {}),
    )
    return {"k": item["k"], "outcome": outcome.to_dict()}


def _assign_inline_call(
    systems: Sequence[ControlTaskSystem],
    algorithm: Optional[str],
    options: Dict[str, Any],
) -> List["AssignmentOutcome"]:
    """Plan body of the serial ``assign_batch`` path.

    Consumes the ambient worker memo for validation only (see
    :func:`_assign_worker` for why the search never sees it).
    """
    memo = worker_memo()
    return [
        assign(system, algorithm=algorithm, validation_memo=memo, **options)
        for system in systems
    ]


def assign_batch(
    systems: Sequence[Union[ControlTaskSystem, TaskSet]],
    *,
    algorithm: Optional[str] = None,
    jobs: int = 1,
    chunk_size: int = 32,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    memo: Optional[AnalysisMemo] = None,
    validation_memo: Optional[AnalysisMemo] = None,
    **options,
) -> List[AssignmentOutcome]:
    """Assign many systems on the sweep engine.

    Outcomes come back in input order, byte-identical in canonical form
    across every ``jobs`` level (each worker call builds its own search
    memo, so memoisation never leaks across items -- determinism
    before thrift).  A single-worker run without a cache directory skips
    the engine, like :func:`analyze_batch`.

    ``memo``/``validation_memo`` (semantics as in :func:`assign`) are
    in-process objects and only apply on that serial inline path; they
    are rejected when the engine (worker processes / chunk cache) would
    run, where sharing them is impossible.
    """
    from repro.sweep import SweepSpec, resolve_jobs, run_sweep

    normalised = tuple(
        as_system(system, name=f"system-{k}")
        for k, system in enumerate(systems)
    )
    if not normalised:
        return []
    if resolve_jobs(jobs) == 1 and cache_dir is None:
        if memo is not None or validation_memo is not None:
            return [
                assign(
                    system,
                    algorithm=algorithm,
                    memo=memo,
                    validation_memo=validation_memo,
                    **options,
                )
                for system in normalised
            ]
        # No caller-provided memo: dispatch on the shared serial backend
        # so post-search validation reuses its backend-lifetime memo --
        # the serial analogue of the pool workers' warm memos.
        from repro.exec.backends import backend_for_jobs
        from repro.exec.plan import ExecutionPlan

        plan = ExecutionPlan(
            name="api-assign",
            fn=_assign_inline_call,
            calls=((normalised, algorithm, options),),
            weights=(len(normalised),),
        )
        return backend_for_jobs(1).run(plan)[0]
    if memo is not None or validation_memo is not None:
        raise ModelError(
            "memo=/validation_memo= require the inline path "
            "(jobs=1 and no cache_dir): an in-process memo cannot be "
            "shared with sweep worker processes"
        )
    spec = SweepSpec(
        name="api-assign",
        worker=_assign_worker,
        items=tuple({"k": k} for k in range(len(normalised))),
        params={
            "systems": normalised,
            "algorithm": algorithm,
            "options": options,
        },
        chunk_size=chunk_size,
    )
    result = run_sweep(spec, jobs=jobs, cache_dir=cache_dir, resume=resume)
    records = sorted(result.records, key=lambda r: r["k"])
    return [
        _outcome_from_dict(record["outcome"]) for record in records
    ]


def write_assign_report(
    outcomes: Sequence[AssignmentOutcome],
    path: str,
    *,
    batch: Optional[bool] = None,
) -> None:
    """Write one outcome, or a versioned batch envelope, atomically.

    ``batch`` selects the shape like the analyze CLI does: a batch input
    gets the envelope even when it holds a single system.  When omitted,
    more than one outcome implies a batch.  The envelope hash covers the
    per-outcome canonical hashes, so two batch artifacts compare by a
    single field regardless of job count (the sweep-artifact convention).
    """
    from repro.sweep.result import atomic_write_json, combined_sha256

    if batch is None:
        batch = len(outcomes) > 1
    if not batch:
        atomic_write_json(path, outcomes[0].to_dict())
        return
    shas = [outcome.canonical_sha256() for outcome in outcomes]
    atomic_write_json(
        path,
        {
            "schema_version": SCHEMA_VERSION,
            "n_systems": len(outcomes),
            "outcomes": [outcome.to_dict() for outcome in outcomes],
            "canonical_sha256": combined_sha256(shas),
        },
    )


def _outcome_from_dict(data: Dict[str, Any]) -> AssignmentOutcome:
    """Rebuild an outcome from its worker record (sweep round trip)."""
    assignment = data["assignment"]
    result = AssignmentResult(
        algorithm=assignment["algorithm"],
        priorities=assignment["priorities"],
        claims_valid=assignment["claims_valid"],
        evaluations=assignment["evaluations"],
        backtracks=assignment["backtracks"],
        cache_hits=assignment["cache_hits"],
    )
    report = (
        None
        if data["report"] is None
        else AnalysisReport.from_dict(data["report"])
    )
    system = None
    if report is not None:
        system = ControlTaskSystem(
            taskset=TaskSet(
                Task(
                    name=v.name,
                    period=v.period,
                    wcet=v.wcet,
                    bcet=v.bcet,
                    priority=v.priority,
                    stability=v.bound,
                )
                for v in report.verdicts
            ),
            name=data["name"],
            priority_policy="as_given",
        )
    return AssignmentOutcome(
        name=data["name"],
        algorithm=data["algorithm"],
        result=result,
        system=system,
        report=report,
    )


def _analyze_inline_population(
    systems: Sequence[ControlTaskSystem],
    memo: Optional[AnalysisMemo] = None,
) -> List[AnalysisReport]:
    """The serial ``analyze_batch`` hot path, through the population tier.

    Bit-identical to ``[analyze(system) for system in systems]``: the
    per-system report cache behaves the same, and the population core
    of :func:`repro.rta.popbatch.analyze_population` poses every task of
    every system as one row of a single stack.  This is what
    makes a whole sweep chunk, a census, or a :mod:`repro.serve`
    micro-batch pay one stacked RTA pass instead of one pass per system.

    ``memo`` layers a shared :class:`~repro.memo.AnalysisMemo` *onto*
    the population tier (:meth:`~repro.memo.AnalysisMemo.
    population_analysis`): known subproblems answer from the memo, and
    the misses of the whole population still ride one stacked kernel
    pass -- reports stay bit-identical either way.
    """
    reports: List[Optional[AnalysisReport]] = [None] * len(systems)
    pending: List[int] = []
    for k, system in enumerate(systems):
        cached = system.__dict__.get("_cache_report")
        if cached is not None:
            reports[k] = cached
        else:
            pending.append(k)
    if pending:
        # Priorities checked by ``resolved_taskset``.
        tasksets = [systems[k].resolved_taskset() for k in pending]
        if memo is not None:
            analyses = memo._population_analysis(tasksets)
        else:
            analyses = _analyze_population(tasksets)
        for k, taskset, analysis in zip(pending, tasksets, analyses):
            reports[k] = _finish_report(systems[k], taskset, analysis)
    return reports  # type: ignore[return-value]


def _analyze_worker(
    item: Dict[str, int], params: Dict[str, Any], seed: int
) -> Dict[str, Any]:
    """Sweep worker: analyse one system of the batch (by index).

    Ships the canonical dict *without* the embedded hash -- the hash is
    recomputable on demand from the reconstructed report, and hashing in
    the hot loop would double the worker's serialisation cost.  The
    ambient worker-lifetime memo makes repeated subproblems free across
    the worker's whole life (reports are bit-identical regardless).
    """
    report = analyze(params["systems"][item["k"]], memo=worker_memo())
    return {"k": item["k"], "report": report._canonical_dict()}


def _analyze_chunk_worker(
    items: List[Dict[str, int]], params: Dict[str, Any], seed: int
) -> List[Dict[str, Any]]:
    """Whole-chunk sweep worker: one population-kernel pass per chunk.

    Record-identical to per-item :func:`_analyze_worker` calls
    (:func:`_analyze_inline_population` is pinned to the scalar
    ``analyze`` path), so chunk caches and ``--jobs`` levels stay
    interchangeable.
    """
    reports = _analyze_inline_population(
        [params["systems"][item["k"]] for item in items],
        memo=worker_memo(),
    )
    return [
        {"k": item["k"], "report": report._canonical_dict()}
        for item, report in zip(items, reports)
    ]


def _analyze_inline_call(
    systems: Sequence[ControlTaskSystem],
) -> List[AnalysisReport]:
    """Plan body of the serial ``analyze_batch`` path (ambient-memo aware)."""
    return _analyze_inline_population(systems, memo=worker_memo())


def analyze_batch(
    systems: Sequence[Union[ControlTaskSystem, TaskSet]],
    *,
    jobs: int = 1,
    chunk_size: int = 32,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    memo: Optional[AnalysisMemo] = None,
) -> List[AnalysisReport]:
    """Analyse many systems on the sweep engine.

    Reports come back in input order and are byte-identical in canonical
    form across every ``jobs`` level (the engine's determinism contract);
    ``cache_dir``/``resume`` give the same warm-restart behaviour as the
    experiment sweeps.  ``jobs`` accepts ``0``/``"auto"`` for all cores.

    A single-worker run without a cache directory skips the engine and
    its record round trip entirely -- the serial hot path stays at the
    raw batched-kernel speed (README's benchmark history records the
    ratio).

    ``memo`` routes every report through a shared
    :class:`~repro.memo.AnalysisMemo` (see :func:`analyze`) and only
    applies on that serial inline path; it is rejected when the engine
    (worker processes / chunk cache) would run, where sharing an
    in-process memo is impossible.
    """
    from repro.sweep import SweepSpec, resolve_jobs, run_sweep

    normalised = tuple(
        as_system(system, name=f"system-{k}")
        for k, system in enumerate(systems)
    )
    if not normalised:
        return []
    if resolve_jobs(jobs) == 1 and cache_dir is None:
        if memo is not None:
            return [analyze(system, memo=memo) for system in normalised]
        # No caller-provided memo: dispatch on the shared serial backend,
        # whose backend-lifetime ambient memo gives the serial path the
        # same cross-call warmth as the pool workers (bit-identical
        # reports, per the memo contract).
        from repro.exec.backends import backend_for_jobs
        from repro.exec.plan import ExecutionPlan

        plan = ExecutionPlan(
            name="api-analyze",
            fn=_analyze_inline_call,
            calls=((normalised,),),
            weights=(len(normalised),),
        )
        return backend_for_jobs(1).run(plan)[0]
    if memo is not None:
        raise ModelError(
            "memo= requires the inline path (jobs=1 and no cache_dir): "
            "an in-process memo cannot be shared with sweep worker "
            "processes"
        )
    spec = SweepSpec(
        name="api-analyze",
        worker=_analyze_worker,
        items=tuple({"k": k} for k in range(len(normalised))),
        params={"systems": normalised},
        chunk_size=chunk_size,
        chunk_worker=_analyze_chunk_worker,
    )
    result = run_sweep(spec, jobs=jobs, cache_dir=cache_dir, resume=resume)
    records = sorted(result.records, key=lambda r: r["k"])
    return [AnalysisReport.from_dict(record["report"]) for record in records]
