"""Command-line entry point: ``python -m repro <experiment> [options]``.

Regenerates any table or figure of the paper from the terminal::

    python -m repro fig2
    python -m repro fig4 --period 0.006
    python -m repro table1 --benchmarks 10000 --jobs 4
    python -m repro fig5 --benchmarks 200
    python -m repro census --benchmarks 200 --jobs auto
    python -m repro all

The ``sweep`` subcommand runs an experiment on the chunked parallel
engine and (optionally) writes the machine-readable artifact::

    python -m repro sweep census --benchmarks 1000 --jobs 4 --out census.json
    python -m repro sweep table1 --benchmarks 10000 --jobs 8 \
        --cache-dir .sweep-cache --resume

Artifacts embed a ``canonical_sha256`` over the deterministic records, so
two runs at different ``--jobs`` can be compared field-for-field.

The ``scenarios`` subcommand drives the declarative scenario catalogue
(:mod:`repro.scenarios`)::

    python -m repro scenarios list
    python -m repro scenarios run bursty_interference --instances 8
    python -m repro scenarios validate transient_overload --jobs auto
    python -m repro scenarios validate --all --instances 16 --out reports.json

The ``analyze`` subcommand is the scriptable face of the unified
analysis façade (:mod:`repro.api`): a system-model JSON file in, the
versioned :class:`~repro.api.AnalysisReport` schema out::

    python -m repro analyze examples/system.json
    python -m repro analyze systems.json --out reports.json --jobs auto
    python -m repro analyze taskset.json --policy backtracking

The input file holds one system (``{"name", "priority_policy",
"tasks": [...]}``) or many (``{"systems": [...]}`` or a top-level list);
tasks may carry explicit ``stability`` bounds or a ``plant`` name from
which the bound is derived.

The ``assign`` subcommand searches (and independently validates) a
priority assignment for the same model files through the unified search
engine (:mod:`repro.search`)::

    python -m repro assign examples/system.json
    python -m repro assign systems.json --algorithm audsley --jobs auto
    python -m repro assign taskset.json --algorithm backtracking --out out.json

and ``sweep assign`` runs the census-scale algorithm comparison::

    python -m repro sweep assign --benchmarks 200 --jobs auto --out assign.json

The ``serve`` subcommand starts the long-lived analysis daemon
(:mod:`repro.serve`: request coalescing + micro-batching over the
batched façade entry points, content-addressed response store), and
``request`` is its scriptable client::

    python -m repro serve --port 8787 --cache-dir .serve-cache
    python -m repro request examples/system.json
    python -m repro request examples/system.json --assign --algorithm audsley
    python -m repro request --stats
    python -m repro request --shutdown

The ``obs`` subcommand group fronts the observability layer
(:mod:`repro.obs`): the anomaly-detector catalogue, the Prometheus
metrics scrape, on-demand detection over a running daemon's report
window, and offline event-log replay::

    python -m repro serve --log-json --event-log events.jsonl \
        --detect-interval 30
    python -m repro obs detectors
    python -m repro obs metrics
    python -m repro obs detect --revalidate --out findings.json
    python -m repro obs replay events.jsonl

``serve --jobs N`` computes model batches on a persistent process pool
(:class:`repro.exec.PoolBackend`) behind the one front end::

    python -m repro serve --port 8787 --jobs 4 --cache-dir .serve-cache

Every ``--jobs`` option accepts ``auto`` (or ``0``) to use all cores.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.experiments.runner import REDUCERS, SWEEPS, run_experiment

#: Experiment order of ``python -m repro all``.
_ALL_ORDER = ("fig2", "fig4", "table1", "fig5", "census", "jittercurve")

#: Registered sweeps without a direct experiment subcommand (the
#: ``scenarios`` group and the ``assign`` model command are their front
#: ends).
_SWEEP_ONLY = ("scenarios", "assign")


def _parse_jobs(value: str) -> int:
    """Argparse type for ``--jobs``: a non-negative int or ``auto``.

    ``auto`` and ``0`` mean "all cores"; the resolution to
    ``os.cpu_count()`` happens in :func:`repro.sweep.resolve_jobs` so the
    CLI, the Python API, and the executor agree on the semantics.
    """
    if value.strip().lower() == "auto":
        return 0
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer or 'auto', got {value!r}"
        ) from None
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"jobs must be >= 0 (0 = auto), got {jobs}"
        )
    return jobs


def _add_jobs_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_parse_jobs,
        default=1,
        help="worker processes for the underlying sweep "
        "(default 1; 0 or 'auto' = all cores)",
    )


def _add_experiment_options(parser: argparse.ArgumentParser, name: str) -> None:
    """Per-experiment options, shared by the direct and sweep subcommands."""
    if name == "fig2":
        # 197 points over [0.02, 1.0] = exactly 5 ms spacing: the narrow
        # pathological resonances at 0.25/0.5/0.75/1.0 s are sampled head-on.
        parser.add_argument("--points", type=int, default=197)
        parser.add_argument("--h-min", type=float, default=0.02)
        parser.add_argument("--h-max", type=float, default=1.0)
    elif name == "fig4":
        parser.add_argument("--period", type=float, default=0.006)
        parser.add_argument("--points", type=int, default=41)
    elif name == "table1":
        parser.add_argument("--benchmarks", type=int, default=500)
        parser.add_argument("--seed", type=int, default=2017)
    elif name == "fig5":
        parser.add_argument("--benchmarks", type=int, default=100)
        parser.add_argument("--seed", type=int, default=2017)
    elif name == "census":
        parser.add_argument("--benchmarks", type=int, default=100)
        parser.add_argument("--seed", type=int, default=424242)
    elif name == "jittercurve":
        parser.add_argument("--period", type=float, default=0.006)
        parser.add_argument("--latency", type=float, default=0.0)
        parser.add_argument("--points", type=int, default=15)
    elif name == "scenarios":
        parser.add_argument("--scenario", type=str, default="smoke_single_loop")
        parser.add_argument("--instances", type=int, default=32)
        parser.add_argument("--seed", type=int, default=7)
        parser.add_argument("--horizon-periods", type=int, default=None)
    elif name == "assign":
        parser.add_argument("--benchmarks", type=int, default=100)
        parser.add_argument("--seed", type=int, default=2017)
        parser.add_argument(
            "--task-counts",
            type=int,
            nargs="+",
            default=[4, 6, 8],
            help="task counts of the benchmark population",
        )
        parser.add_argument(
            "--exhaustive-max-n",
            type=int,
            default=6,
            help="skip the exhaustive scan above this task count",
        )


def _experiment_kwargs(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Translate parsed options into experiment keyword arguments."""
    if name == "fig2":
        return {"points": args.points, "h_min": args.h_min, "h_max": args.h_max}
    if name == "fig4":
        return {"h": args.period, "points": args.points}
    if name == "jittercurve":
        return {"h": args.period, "latency": args.latency, "points": args.points}
    if name in ("table1", "fig5", "census"):
        return {"benchmarks": args.benchmarks, "seed": args.seed}
    if name == "scenarios":
        return {
            "scenario": args.scenario,
            "instances": args.instances,
            "seed": args.seed,
            "horizon_periods": args.horizon_periods,
        }
    if name == "assign":
        return {
            "benchmarks": args.benchmarks,
            "seed": args.seed,
            "task_counts": tuple(args.task_counts),
            "exhaustive_max_n": args.exhaustive_max_n,
        }
    return {}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Anomalies in Scheduling Control Applications "
            "and Design Complexity' (Aminifar & Bini, DATE 2017)"
        ),
    )
    sub = parser.add_subparsers(dest="experiment", required=True)

    help_lines = {
        "fig2": "control cost vs sampling period",
        "fig4": "stability curve + linear bound",
        "table1": "invalid solutions of Unsafe Quadratic",
        "fig5": "runtime comparison of the assigners",
        "census": "anomaly census (extension)",
        "jittercurve": "expected cost vs jitter (extension)",
        "scenarios": "Monte-Carlo scenario validation (extension)",
        "assign": "priority-assignment suite comparison (extension)",
    }
    for name in _ALL_ORDER:
        experiment = sub.add_parser(name, help=help_lines[name])
        _add_experiment_options(experiment, name)
        _add_jobs_option(experiment)

    sweep = sub.add_parser(
        "sweep",
        help="run an experiment on the parallel sweep engine, write artifact",
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_experiment", required=True)
    for name in _ALL_ORDER + _SWEEP_ONLY:
        target = sweep_sub.add_parser(name, help=f"sweep {help_lines[name]}")
        _add_experiment_options(target, name)
        _add_jobs_option(target)
        target.add_argument(
            "--out", type=str, default=None, help="artifact JSON path"
        )
        target.add_argument(
            "--chunk-size", type=int, default=None, help="items per chunk"
        )
        target.add_argument(
            "--cache-dir",
            type=str,
            default=None,
            help="directory for per-chunk cache files",
        )
        target.add_argument(
            "--resume",
            action="store_true",
            help="reuse cached chunks whose fingerprint matches",
        )

    scenarios = sub.add_parser(
        "scenarios",
        help="declarative scenario catalogue + simulation-vs-analysis validation",
    )
    scen_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)

    scen_sub.add_parser("list", help="list the registered scenarios")

    scen_run = scen_sub.add_parser(
        "run", help="generate instances, print the analytic verdicts"
    )
    scen_run.add_argument("name", help="registered scenario name")
    scen_run.add_argument("--instances", type=int, default=8)
    scen_run.add_argument("--seed", type=int, default=7)

    scen_val = scen_sub.add_parser(
        "validate",
        help="Monte-Carlo validate analytic verdicts against co-simulation",
    )
    scen_val.add_argument(
        "name", nargs="?", default=None, help="registered scenario name"
    )
    scen_val.add_argument(
        "--all", action="store_true", help="validate every registered scenario"
    )
    scen_val.add_argument("--instances", type=int, default=32)
    scen_val.add_argument("--seed", type=int, default=7)
    scen_val.add_argument("--horizon-periods", type=int, default=None)
    _add_jobs_option(scen_val)
    scen_val.add_argument(
        "--out", type=str, default=None, help="canonical report JSON path"
    )
    scen_val.add_argument(
        "--cache-dir", type=str, default=None,
        help="directory for per-chunk cache files",
    )
    scen_val.add_argument(
        "--resume", action="store_true",
        help="reuse cached chunks whose fingerprint matches",
    )

    assign = sub.add_parser(
        "assign",
        help="search + validate priority assignments for system-model JSON",
    )
    assign.add_argument(
        "model", help="system-model JSON file (one system or a batch)"
    )
    assign.add_argument(
        "--algorithm",
        type=str,
        default=None,
        help="assignment algorithm (rate_monotonic, slack_monotonic, "
        "audsley, unsafe_quadratic, backtracking, exhaustive); default: "
        "the system's priority policy, else backtracking",
    )
    assign.add_argument(
        "--out", type=str, default=None, help="outcome JSON path"
    )
    assign.add_argument(
        "--name", type=str, default=None, help="override the system name"
    )
    assign.add_argument(
        "--max-evaluations",
        type=int,
        default=None,
        help="evaluation budget of the backtracking search",
    )
    _add_jobs_option(assign)

    analyze = sub.add_parser(
        "analyze",
        help="analyse system-model JSON through the repro.api façade",
    )
    analyze.add_argument(
        "model", help="system-model JSON file (one system or a batch)"
    )
    analyze.add_argument(
        "--out", type=str, default=None, help="report JSON path"
    )
    analyze.add_argument(
        "--policy",
        type=str,
        default=None,
        help="override the priority policy of every input system "
        "(as_given, rate_monotonic, slack_monotonic, audsley, "
        "backtracking, unsafe_quadratic)",
    )
    analyze.add_argument(
        "--name", type=str, default=None, help="override the system name"
    )
    _add_jobs_option(analyze)

    serve = sub.add_parser(
        "serve",
        help="start the batched, cached analysis daemon (repro.serve)",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8787, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="directory for the persistent response-store tier",
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=0.005,
        help="seconds to coalesce concurrent requests into one batch",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64, help="requests per batch cap"
    )
    serve.add_argument(
        "--store-entries",
        type=int,
        default=1024,
        help="in-memory response-store capacity",
    )
    serve.add_argument(
        "--memo-entries",
        type=int,
        default=65536,
        help=(
            "daemon-lifetime analysis-memo capacity (per-task subproblem "
            "LRU; 0 disables incremental analysis)"
        ),
    )
    serve.add_argument(
        "--log-level",
        type=str,
        default="info",
        choices=("debug", "info", "warning", "error"),
        help="stderr log verbosity of the daemon (default info)",
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON-lines logs instead of text",
    )
    serve.add_argument(
        "--no-obs",
        action="store_true",
        help="disable the telemetry layer (metrics stay minimal, "
        "no tracing spans, no report window, no detectors)",
    )
    serve.add_argument(
        "--obs-window",
        type=int,
        default=2048,
        help="analysis reports kept in the anomaly-detection window",
    )
    serve.add_argument(
        "--event-log",
        type=str,
        default=None,
        help="append request traces and detector findings to this "
        "JSON-lines file",
    )
    serve.add_argument(
        "--detect-interval",
        type=float,
        default=0.0,
        help="seconds between background anomaly-detector passes "
        "(0 disables; detectors stay available via POST /v1/detect)",
    )
    serve.add_argument(
        "--detect-revalidate",
        action="store_true",
        help="replay models flagged by the background detector pass "
        "through the Monte-Carlo validation harness",
    )
    serve.add_argument(
        "--detect-out",
        type=str,
        default=None,
        help="append each background detector pass's canonical findings "
        "to this JSON-lines file (the alerting/export hook)",
    )
    serve.add_argument(
        "--window-file",
        type=str,
        default=None,
        help="snapshot the anomaly-detection report window here on clean "
        "shutdown and reload it on start",
    )
    _add_jobs_option(serve)

    request = sub.add_parser(
        "request",
        help="send system-model JSON to a running analysis daemon",
    )
    request.add_argument(
        "model",
        nargs="?",
        default=None,
        help="system-model JSON file (one system or a batch)",
    )
    request.add_argument("--host", type=str, default="127.0.0.1")
    request.add_argument("--port", type=int, default=8787)
    request.add_argument(
        "--assign",
        action="store_true",
        help="request a priority assignment instead of an analysis",
    )
    request.add_argument(
        "--algorithm",
        type=str,
        default=None,
        help="assignment algorithm for --assign (default: server default)",
    )
    request.add_argument(
        "--out", type=str, default=None, help="write the response(s) here"
    )
    request.add_argument(
        "--scenario",
        type=str,
        default=None,
        help="request a seeded scenario population draw instead of a "
        "model analysis (with --instances/--seed)",
    )
    request.add_argument("--instances", type=int, default=8)
    request.add_argument("--seed", type=int, default=7)
    request.add_argument(
        "--health", action="store_true", help="print daemon health and exit"
    )
    request.add_argument(
        "--stats", action="store_true", help="print daemon counters and exit"
    )
    request.add_argument(
        "--shutdown", action="store_true", help="stop the daemon and exit"
    )

    obs = sub.add_parser(
        "obs",
        help="observability tools: detector catalogue, metrics scrape, "
        "anomaly detection, event-log replay",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_sub.add_parser(
        "detectors", help="list the registered anomaly detectors"
    )

    obs_metrics = obs_sub.add_parser(
        "metrics", help="scrape /v1/metrics from a running daemon"
    )
    obs_metrics.add_argument("--host", type=str, default="127.0.0.1")
    obs_metrics.add_argument("--port", type=int, default=8787)

    obs_detect = obs_sub.add_parser(
        "detect",
        help="run the anomaly detectors over a running daemon's window",
    )
    obs_detect.add_argument("--host", type=str, default="127.0.0.1")
    obs_detect.add_argument("--port", type=int, default=8787)
    obs_detect.add_argument(
        "--window", type=int, default=None,
        help="only the most recent N window records (default: all)",
    )
    obs_detect.add_argument(
        "--detectors", type=str, nargs="+", default=None,
        help="run only these detectors (default: the full registry)",
    )
    obs_detect.add_argument(
        "--revalidate", action="store_true",
        help="replay flagged models through the Monte-Carlo harness",
    )
    obs_detect.add_argument(
        "--horizon-periods", type=int, default=None,
        help="simulation horizon of the revalidation runs",
    )
    obs_detect.add_argument(
        "--limit", type=int, default=None,
        help="revalidate at most this many flagged models",
    )
    obs_detect.add_argument(
        "--out", type=str, default=None,
        help="write the canonical detection report here",
    )

    obs_replay = obs_sub.add_parser(
        "replay", help="summarise a daemon event-log (JSON-lines) file"
    )
    obs_replay.add_argument("path", help="event-log file written by serve")

    sub.add_parser("all", help="run every experiment at default scale")
    return parser


def _run_sweep_command(args: argparse.Namespace) -> int:
    from repro.sweep import run_sweep

    name = args.sweep_experiment
    kwargs = _experiment_kwargs(name, args)
    if name == "scenarios" and kwargs.get("horizon_periods") is None:
        kwargs.pop("horizon_periods")
    if args.chunk_size is not None:
        kwargs["chunk_size"] = args.chunk_size
    spec = SWEEPS[name](**kwargs)
    result = run_sweep(
        spec,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        resume=args.resume,
    )
    if args.out:
        result.write(args.out)
    print(REDUCERS[name](result).render())
    meta = result.meta
    print(
        f"\n[sweep {name}: {meta['n_items']} items in {meta['n_chunks']} "
        f"chunks, jobs={meta['jobs']}, cache hits={meta['cache_hits']}, "
        f"{meta['elapsed_seconds']:.1f} s; canonical sha256 "
        f"{result.canonical_sha256()[:16]}]"
    )
    if args.out:
        print(f"[artifact written to {args.out}]")
    return 0


def _run_scenarios_command(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table
    from repro.scenarios import get_scenario, scenario_names
    from repro.scenarios.validate import analytic_records, validate_scenario

    if args.scenarios_command == "list":
        rows = [
            (
                spec.name,
                spec.expectation,
                spec.axes_summary(),
            )
            for spec in (get_scenario(n) for n in scenario_names())
        ]
        print(
            format_table(
                ["scenario", "expectation", "axes"],
                rows,
                title=f"Registered scenarios ({len(rows)})",
            )
        )
        for name in scenario_names():
            print(f"\n{name}:\n  {get_scenario(name).description}")
        return 0

    if args.scenarios_command == "run":
        spec = get_scenario(args.name)
        records = analytic_records(
            spec, instances=args.instances, seed=args.seed
        )
        rows = []
        for record in records:
            if not record["assigned"]:
                rows.append((record["index"], "-", "-", "-", "-", "unassigned"))
                continue
            verdict = "stable" if record["analytic_stable"] else "UNSTABLE"
            rows.append(
                (
                    record["index"],
                    record["n_tasks"],
                    f"{record['latency']:.4g}",
                    f"{record['jitter']:.4g}",
                    f"{record['slack']:.4g}",
                    verdict,
                )
            )
        print(
            format_table(
                ["instance", "n", "L", "J", "slack", "analytic verdict"],
                rows,
                title=f"Scenario {spec.name!r}: {spec.axes_summary()}",
            )
        )
        return 0

    # validate
    names = (
        list(scenario_names())
        if args.all
        else [args.name]
        if args.name
        else None
    )
    if names is None:
        print("scenarios validate: give a scenario name or --all", file=sys.stderr)
        return 2
    reports = {}
    all_ok = True
    for name in names:
        validation = validate_scenario(
            name,
            instances=args.instances,
            seed=args.seed,
            horizon_periods=args.horizon_periods,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            resume=args.resume,
        )
        reports[name] = validation
        all_ok = all_ok and validation.ok
        print(validation.render())
        print()
    if args.out:
        if args.all or len(reports) > 1:
            from repro.sweep.result import encode_nonfinite

            payload = json.dumps(
                encode_nonfinite(
                    {name: v.to_report() for name, v in reports.items()}
                ),
                indent=2,
                sort_keys=True,
                allow_nan=False,
            )
            with open(args.out, "w") as handle:
                handle.write(payload + "\n")
        else:
            next(iter(reports.values())).write(args.out)
        print(f"[report written to {args.out}]")
    return 0 if all_ok else 2


def _load_system_dicts(path: str):
    """Read a model file; returns ``(system_dicts, batch)`` or an error str."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as error:
        return f"cannot read {path}: {error}", None
    except json.JSONDecodeError as error:
        return f"{path} is not valid JSON: {error}", None
    if isinstance(data, list):
        return data, True
    if isinstance(data, dict) and "systems" in data:
        return data["systems"], True
    return [data], False


def _run_assign_command(args: argparse.Namespace) -> int:
    from repro.api import ControlTaskSystem, assign_batch
    from repro.api.service import write_assign_report
    from repro.errors import ModelError, ReproError

    loaded, batch = _load_system_dicts(args.model)
    if batch is None:
        print(f"assign: {loaded}", file=sys.stderr)
        return 2
    system_dicts = loaded
    if args.name is not None and batch:
        print(
            "assign: --name applies to a single-system model only; "
            "name batch systems in the input file",
            file=sys.stderr,
        )
        return 2

    options = {}
    if args.max_evaluations is not None:
        options["max_evaluations"] = args.max_evaluations
    try:
        systems = []
        for k, entry in enumerate(system_dicts):
            if not isinstance(entry, dict):
                raise ModelError(
                    f"system entry {k} must be an object, got "
                    f"{type(entry).__name__}"
                )
            entry = dict(entry)
            if args.name is not None:
                entry["name"] = args.name
            entry.setdefault("name", f"system-{k}" if batch else "system")
            systems.append(ControlTaskSystem.from_dict(entry))
        outcomes = assign_batch(
            systems, algorithm=args.algorithm, jobs=args.jobs, **options
        )
    except ReproError as error:
        print(f"assign: {error}", file=sys.stderr)
        return 2

    for outcome in outcomes:
        print(outcome.render())
        print()
    ok = sum(1 for o in outcomes if o.ok)
    print(
        f"[assign: {len(outcomes)} system(s), {ok} assigned+stable, "
        f"{len(outcomes) - ok} failing]"
    )
    if args.out:
        write_assign_report(outcomes, args.out, batch=batch)
        print(f"[outcome written to {args.out}]")
    return 0 if ok == len(outcomes) else 1


def _run_analyze_command(args: argparse.Namespace) -> int:
    from repro.api import (
        ControlTaskSystem,
        analyze,
        analyze_batch,
        write_batch_report,
    )
    from repro.errors import ModelError, ReproError

    loaded, batch = _load_system_dicts(args.model)
    if batch is None:
        print(f"analyze: {loaded}", file=sys.stderr)
        return 2
    system_dicts = loaded

    if args.name is not None and batch:
        print(
            "analyze: --name applies to a single-system model only; "
            "name batch systems in the input file",
            file=sys.stderr,
        )
        return 2

    try:
        systems = []
        for k, entry in enumerate(system_dicts):
            if not isinstance(entry, dict):
                raise ModelError(
                    f"system entry {k} must be an object, got "
                    f"{type(entry).__name__}"
                )
            entry = dict(entry)
            if args.policy is not None:
                entry["priority_policy"] = args.policy
            if args.name is not None:
                entry["name"] = args.name
            entry.setdefault("name", f"system-{k}" if batch else "system")
            systems.append(ControlTaskSystem.from_dict(entry))

        if batch:
            reports = analyze_batch(systems, jobs=args.jobs)
        else:
            reports = [analyze(systems[0])]
    except ReproError as error:
        print(f"analyze: {error}", file=sys.stderr)
        return 2

    for report in reports:
        print(report.render())
        print()
    stable = sum(1 for r in reports if r.stable)
    print(
        f"[analyze: {len(reports)} system(s), {stable} stable, "
        f"{len(reports) - stable} violating]"
    )
    if args.out:
        if batch:
            write_batch_report(reports, args.out)
        else:
            reports[0].write(args.out)
        print(f"[report written to {args.out}]")
    return 0 if stable == len(reports) else 1


def _run_serve_command(args: argparse.Namespace) -> int:
    from repro.obs.logs import configure_serve_logging
    from repro.serve import AnalysisDaemon

    configure_serve_logging(args.log_level, json_mode=args.log_json)
    daemon = AnalysisDaemon(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        batch_window=args.batch_window,
        max_batch=args.max_batch,
        store_entries=args.store_entries,
        memo_entries=args.memo_entries,
        obs=not args.no_obs,
        obs_window=args.obs_window,
        event_log=args.event_log,
        detect_interval=args.detect_interval,
        detect_revalidate=args.detect_revalidate,
        detect_out=args.detect_out,
        window_file=args.window_file,
    )

    # Print the endpoint once the socket is bound (port 0 resolves to a
    # real ephemeral port there), from a helper thread so run() can own
    # the main thread and its KeyboardInterrupt handling.
    import threading

    def announce() -> None:
        if daemon.started.wait(10.0):
            print(
                f"[repro serve] listening on http://{daemon.host}:{daemon.port} "
                f"(jobs={daemon.jobs}, window={daemon.batcher.window * 1e3:.1f} ms, "
                f"cache-dir={args.cache_dir or 'none'}); "
                "POST /v1/shutdown or Ctrl-C to stop",
                flush=True,
            )

    threading.Thread(target=announce, daemon=True).start()
    daemon.run()
    return 0


def _run_request_command(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient, ServeClientError

    client = ServeClient(args.host, args.port)
    try:
        if args.health:
            print(json.dumps(client.health(), indent=2, sort_keys=True))
            return 0
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.shutdown:
            print(json.dumps(client.shutdown(), indent=2, sort_keys=True))
            return 0
        if args.scenario is not None:
            status, body = client.scenarios_run_raw(
                args.scenario, instances=args.instances, seed=args.seed
            )
            text = body.decode("utf-8")
            if status != 200:
                print(f"request: rejected ({status}): {text}", file=sys.stderr)
                return 2
            print(text)
            if args.out:
                with open(args.out, "wb") as handle:
                    handle.write(body + b"\n")
                print(f"[response written to {args.out}]", file=sys.stderr)
            return 0
    except ServeClientError as error:
        print(f"request: {error}", file=sys.stderr)
        return 2

    if args.model is None:
        print(
            "request: give a model file, or --scenario/--health/--stats/"
            "--shutdown",
            file=sys.stderr,
        )
        return 2
    loaded, batch = _load_system_dicts(args.model)
    if batch is None:
        print(f"request: {loaded}", file=sys.stderr)
        return 2

    bodies: List[bytes] = []
    all_ok = True
    try:
        for k, entry in enumerate(loaded):
            if not isinstance(entry, dict):
                print(
                    f"request: system entry {k} must be an object, got "
                    f"{type(entry).__name__}",
                    file=sys.stderr,
                )
                return 2
            entry = dict(entry)
            entry.setdefault("name", f"system-{k}" if batch else "system")
            if args.assign:
                status, body = client.assign_raw(entry, algorithm=args.algorithm)
            else:
                status, body = client.analyze_raw(entry)
            text = body.decode("utf-8")
            if status != 200:
                print(f"request: entry {k} rejected ({status}): {text}", file=sys.stderr)
                return 2
            # The body is the exact canonical façade serialisation --
            # print it untouched so shell pipelines see the real bytes.
            print(text)
            bodies.append(body)
            response = json.loads(text)
            all_ok = all_ok and bool(
                response.get("ok" if args.assign else "stable")
            )
    except ServeClientError as error:
        print(f"request: {error}", file=sys.stderr)
        return 2

    if args.out:
        with open(args.out, "wb") as handle:
            if batch:
                handle.write(
                    b"[\n" + b",\n".join(bodies) + b"\n]\n"
                )
            else:
                handle.write(bodies[0] + b"\n")
        print(f"[response written to {args.out}]", file=sys.stderr)
    return 0 if all_ok else 1


def _run_obs_command(args: argparse.Namespace) -> int:
    if args.obs_command == "detectors":
        from repro.experiments.report import format_table
        from repro.obs import detector_catalogue

        catalogue = detector_catalogue()
        print(
            format_table(
                ["detector", "version", "description"],
                [
                    (d["name"], f"v{d['algorithm_version']}", d["description"])
                    for d in catalogue
                ],
                title=f"Registered anomaly detectors ({len(catalogue)})",
            )
        )
        return 0

    if args.obs_command == "replay":
        return _run_obs_replay(args.path)

    # metrics / detect talk to a running daemon.
    from repro.serve import ServeClient, ServeClientError

    client = ServeClient(args.host, args.port)
    try:
        if args.obs_command == "metrics":
            print(client.metrics(), end="")
            return 0

        # detect: print the exact canonical report bytes, untouched.
        request: Dict[str, Any] = {}
        if args.window is not None:
            request["window"] = args.window
        if args.detectors is not None:
            request["detectors"] = list(args.detectors)
        if args.revalidate:
            request["revalidate"] = True
        if args.horizon_periods is not None:
            request["horizon_periods"] = args.horizon_periods
        if args.limit is not None:
            request["limit"] = args.limit
        status, body = client.detect_raw(request)
        text = body.decode("utf-8")
        if status != 200:
            print(f"obs detect: rejected ({status}): {text}", file=sys.stderr)
            return 2
        print(text)
        if args.out:
            with open(args.out, "wb") as handle:
                handle.write(body + b"\n")
            print(f"[report written to {args.out}]", file=sys.stderr)
        report = json.loads(text)
        return 0 if report.get("n_findings", 0) == 0 else 1
    except ServeClientError as error:
        print(f"obs {args.obs_command}: {error}", file=sys.stderr)
        return 2


def _run_obs_replay(path: str) -> int:
    from repro.experiments.report import format_table
    from repro.obs import percentile, read_events

    try:
        events = read_events(path)
    except OSError as error:
        print(f"obs replay: cannot read {path}: {error}", file=sys.stderr)
        return 2

    kinds: Dict[str, int] = {}
    for event in events:
        kind = str(event.get("kind", "?"))
        kinds[kind] = kinds.get(kind, 0) + 1

    by_endpoint: Dict[str, List[float]] = {}
    for event in events:
        if event.get("kind") != "trace":
            continue
        seconds = event.get("duration_seconds")
        if isinstance(seconds, (int, float)):
            by_endpoint.setdefault(
                str(event.get("endpoint", "?")), []
            ).append(float(seconds))

    summary = ", ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
    print(f"{path}: {len(events)} events ({summary or 'empty'})")
    if by_endpoint:
        rows = [
            (
                endpoint,
                len(values),
                f"{percentile(values, 0.5) * 1e3:.2f}",
                f"{percentile(values, 0.99) * 1e3:.2f}",
                f"{max(values) * 1e3:.2f}",
            )
            for endpoint, values in sorted(by_endpoint.items())
        ]
        print(
            format_table(
                ["endpoint", "requests", "p50 ms", "p99 ms", "max ms"],
                rows,
                title="Request traces",
            )
        )
    n_findings = sum(
        len(event.get("report", {}).get("findings", []))
        for event in events
        if event.get("kind") == "findings"
    )
    if kinds.get("findings"):
        print(
            f"[{kinds['findings']} detector pass(es), "
            f"{n_findings} finding(s)]"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.experiment == "all":
        for name in _ALL_ORDER:
            print(run_experiment(name).render())
            print()
        return 0
    if args.experiment == "sweep":
        return _run_sweep_command(args)
    if args.experiment == "scenarios":
        return _run_scenarios_command(args)
    if args.experiment == "assign":
        return _run_assign_command(args)
    if args.experiment == "analyze":
        return _run_analyze_command(args)
    if args.experiment == "serve":
        return _run_serve_command(args)
    if args.experiment == "request":
        return _run_request_command(args)
    if args.experiment == "obs":
        return _run_obs_command(args)
    kwargs = _experiment_kwargs(args.experiment, args)
    kwargs["jobs"] = args.jobs
    print(run_experiment(args.experiment, **kwargs).render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
