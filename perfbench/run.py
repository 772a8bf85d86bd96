"""Benchmark of the reproduction: one command, four workloads.

    python3 perfbench/run.py --rate 50 --workload census --seed 0 \
        --seconds 20 --trace 0

Runs one workload from the root of a source checkout (the program is
imported from ``src/``), checks its outputs, and prints one JSON object
as the last line of standard output::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``items_per_s`` -- task sets, validated instances, or (``serve``)
  closed-loop replies per second;
* ``p50_ms`` -- median latency: of a whole job on the batch workloads,
  where one caller waits for the whole sweep, and of an open-loop
  request, timed from its due time, on ``serve``;
* ``setup_s`` -- spawn of a fresh interpreter (or daemon) until it is
  ready (imports done, or the first healthy ``/v1/health``);
* ``peak_rss_mb`` -- peak resident memory of the census or scenario
  process, or of the daemon.

Every time behind these metrics is given at a reference CPU speed.  The
measured processes run a speed probe (``probe.py``) that times a fixed
kernel from inside the working thread every 25 ms; a time is scaled by
how much slower than its reference time the kernel ran meanwhile
(``stats.at_reference_speed``).  On the shared 2-CPU host the benchmark
was set up on, a core's speed drifts by 20-40 % over seconds to minutes
and a fixed loop timed before and after a job does not see it; over ten
seeds the scaled census ``items_per_s`` spread 0.025 of its median
(quartile distance over median) where the unscaled one spread 0.21.
The detail line carries the unscaled figures and the probe's kernel
times beside the scaled ones.  Measured processes also run with
address-space randomisation off (``fixed_layout``), and on ``serve`` the
client and the daemon run on separate CPUs (``split_cpus``).

``--trace 1`` is a separate run that wraps each layer's public functions
(from ``child.py`` and ``serve_launcher.py``, never from ``src/``) and
reports per-layer self times (at the reference speed too), counts, and
the tracing overhead.  A line of host facts (CPU count, Python and numpy
versions, source hash, and a fixed reference loop timed before and after
the workload) precedes the result.

Every input is generated from ``--seed``.  Sample 0 of every batch run is
the pinned job (census sha ``0040a14d...``, the first scenario shas
below), so every run checks the pin; seed 0 reproduces all the pins.
Each job runs in a fresh interpreter with a fixed ``PYTHONHASHSEED``, so
every sample starts with a cold stability-bound table, as a ``repro
sweep`` user's process does.  No end-to-end metric comes from a single
sample: each is a median, or a total over the samples of the run.

Tests of the benchmark's own arithmetic: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Working files inside the checkout (job results, daemon logs, spans).
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(BENCH))

import client  # noqa: E402
from probe import REFERENCE_KERNEL_S, read_samples  # noqa: E402
from serve_launcher import serve_layers  # noqa: E402
from stats import (  # noqa: E402
    Tally,
    at_reference_speed,
    completion_rate,
    latency_from_due,
    lateness,
    median,
    percentile,
    tail_or_median,
    trimmed_mean,
)

CENSUS_PIN = "0040a14d7db0eb9db324612f454a2325b46cf1331d03e304795ec96e01ce3929"
#: Canonical report shas of scenario seeds 7, 8, ..., 14 (the samples of a
#: seed-0 run), one sha per scenario in ``child.SCENARIOS`` order.
SCENARIO_PINS = [
    ["056647d6344506f6799a3278b5e7dc07ef9dc3a797959370d847b120889a0380",
     "589849272a015c74612eb0716a877223b16a58d2068301e4121a7b79a00f48ef"],
    ["dbc4cc26d64df65dc34b8ac09eba853977a435f47e821173574645fef2136869",
     "fd563f86d417831a80c05758893c5e1f4176b9efb23ba2a4544a05fa72918795"],
    ["ba96b56c365460df1b54efa3274415ea4d7d78bc4692ec054899edc2abcf5c7f",
     "2fad23b80270ecc5c42c3dd6118e0c5729cb505d3ee16b84898d0cf6be4d8d6a"],
    ["e3a0ee0ca901a799134f3a046e146858452f23a28e09600389c54bc1f9352eae",
     "bdf6ad11ec1fa6c07822952d239787a1af42ecadfbfa733c4859def87a874f38"],
    ["ea47f2d3dad2d799c1e964190e11016ce4aae538c6df7fb3acf43f31fa7dff75",
     "066521c1d4e7efc11a25b8640770c03fe58cf68c493487aaea38a4a8f990ab75"],
    ["75cbba93ac271062c93162ad4a3e8714b4725a9e1c5c9a551c729dcd50b3331d",
     "bd1621c62be3282fb275ac2dfd1d9075dcb9fd1745c17cb45856db65cb082717"],
    ["a1f6cc0c7f03cb598f63362799c58dc650b6bf6e1c3973c8c91fdb9eeeeb0be3",
     "3620d8587c072e6cf0a4ecb50d4196bbbdb938538726d849f9cf2c22e814eb76"],
    ["a66e191e314506c5f9e6f9a07fe159228a2521e4a484ca4e61ae3355cd193cad",
     "290a9ddab7c45203b5a71625c4ea9e6ce0b9e7c5013e1945e5e09c6653c4ef3e"],
]

END_TO_END = {
    "items_per_s": "1/s",
    "p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "benchgen.generate_s": "s",
    "jittermargin.bound_s": "s",
    "jittermargin.bound_misses": "count",
    "jittermargin.bound_hit_ratio": "ratio",
    "control.lqg_s": "s",
    "jittermargin.curve_s": "s",
    "assignment.backtracking_s": "s",
    "search.evaluations": "count",
    "memo.hit_ratio": "ratio",
    "anomalies.detectors_s": "s",
    "rta.pop_s": "s",
    "rta.pop_problems": "count",
    "sweep.serialize_s": "s",
    "sweep.self_s": "s",
    "exec.items": "count",
    "exec.batches": "count",
    "exec.memo_hits": "count",
    "exec.failover_items": "count",
    "scenarios.instance_s": "s",
    "sim.fpps_s": "s",
    "sim.cosim_s": "s",
    "api.verdict_s": "s",
    "sim.jobs": "count",
    "serve.parse_s": "s",
    "serve.store_lookup_s": "s",
    "serve.store_hit_ratio": "ratio",
    "serve.batch_wait_s": "s",
    "serve.batch_size": "count",
    "serve.compute_s": "s",
    "serve.encode_s": "s",
    "client.late_ms": "ms",
    "setup.import_s": "s",
    "trace.items_per_s": "1/s",
    "trace.untraced_items_per_s": "1/s",
    "trace.overhead": "ratio",
}
#: Span names whose self time reports under another layer name.
_RENAMED = {"sweep_s": "sweep.self_s"}

#: Job samples per run never fall below this, however short ``--seconds``.
MIN_SAMPLES = 3
JOB_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed correctness gate)."""


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_POPULATION_KERNEL", None)  # measure the shipping default
    return env


#: ``personality(2)`` flag that turns off address-space randomisation.
ADDR_NO_RANDOMIZE = 0x0040000
_QUERY_PERSONA = 0xFFFFFFFF


def _personality() -> Optional[Callable[[int], int]]:
    try:
        call = ctypes.CDLL(None, use_errno=True).personality
    except (AttributeError, OSError):
        return None
    call.argtypes = [ctypes.c_ulong]
    call.restype = ctypes.c_int
    return call if call(_QUERY_PERSONA) != -1 else None


_PERSONALITY = _personality()


def fixed_layout() -> None:
    """Run in each measured process between fork and exec: turn off
    address-space randomisation, so every process of a run gets the same
    memory layout.  With random layouts, one cold census on a shared
    2-CPU host took 4.8-7.2 s where the fixed layout took 4.7-5.9 s over
    the same minutes; the spread came from where the heap and libraries
    landed, not from the program."""
    if _PERSONALITY is not None:
        _PERSONALITY(_PERSONALITY(_QUERY_PERSONA) | ADDR_NO_RANDOMIZE)


def spawn(argv: List[str], cpus: Optional[Set[int]] = None,
          **kwargs: Any) -> subprocess.Popen:
    """A measured process in a process group of its own: fixed
    environment, fixed memory layout, and given ``cpus``, only those."""

    def prepare() -> None:
        fixed_layout()
        if cpus is not None:
            os.sched_setaffinity(0, cpus)

    return subprocess.Popen(argv, env=child_env(), cwd=ROOT, start_new_session=True,
                            preexec_fn=prepare, **kwargs)


def _stop(proc: subprocess.Popen) -> None:
    """Kill and reap the process, then kill whatever is left of its group
    (pool workers) and wait until none is left."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Spawner:
    """Fresh interpreters for batch jobs; times spawn to ``ready``."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0

    def run(self, options: Dict[str, Any]) -> Tuple[float, Optional[Dict[str, Any]]]:
        self.count += 1
        out = self.work / f"job-{self.count}.json"
        # Options go on stdin, so argv (and with it the initial stack)
        # is the same for every job.
        argv = [sys.executable, str(BENCH / "child.py")]
        start = time.perf_counter()
        proc = spawn(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            proc.stdin.write(json.dumps(dict(options, out=str(out))).encode() + b"\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            setup = time.perf_counter() - start
            proc.communicate(timeout=JOB_TIMEOUT_S)
        finally:
            _stop(proc)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError(f"job {options} exited with {proc.returncode}")
        with open(out) as handle:
            return setup, json.load(handle)


# ----------------------------------------------------------------------
# Batch workloads: census, census_pool, scenarios
# ----------------------------------------------------------------------


def scaled(seconds: float, probe: Dict[str, float], jobs: int = 1) -> float:
    """Seconds at the reference CPU speed, the probe's own time taken out
    (shared by ``jobs`` processes working at once)."""
    if not probe["n"]:
        raise BenchError("the speed probe took no samples")
    return at_reference_speed(seconds - probe["busy_s"] / jobs, probe["kernel_s"],
                              REFERENCE_KERNEL_S)


def _at_reference(layers: Dict[str, float], kernel_s: float) -> Dict[str, float]:
    """Per-layer figures with every time (``*_s``) scaled by ``kernel_s``."""
    return {name: at_reference_speed(value, kernel_s, REFERENCE_KERNEL_S)
            if name.endswith("_s") else value for name, value in layers.items()}


def items_per_second(samples: List[Dict[str, Any]], key: str = "seconds") -> float:
    """Items over job time, summed over the samples: every second of the
    run weighs the same, whichever job it fell in."""
    return sum(s["items"] for s in samples) / sum(s[key] for s in samples)


@dataclass
class Batch:
    child_workload: str
    jobs: int
    #: ``(seed, k) -> `` the job seed of sample ``k``.
    sample_seed: Callable[[int, int], int]
    #: ``job seed -> `` its pinned shas (``None``: unpinned).
    pins: Callable[[int], Optional[List[str]]]


def _batch_samples(batch: Batch, seed: int, seconds: float, work: Path,
                   traced: Sequence[bool]) -> Tuple[List[float], List[Dict[str, Any]]]:
    """Job samples cycling through ``traced`` until ``seconds`` are used.

    Every job's spawn is also a set-up sample.  A new sample
    starts only if at least half of it should fit within ``seconds``,
    judged by the last, so a run lasts ``seconds`` on average.  Set-up
    and job times come back scaled to the reference CPU speed
    (``scaled``), with the raw times beside them.
    """
    spawner = Spawner(work)
    base = {"workload": batch.child_workload, "jobs": batch.jobs}
    spawner.run(dict(base, seed=0, setup_only=True))  # untimed: bytecode caches
    setups: List[Tuple[float, float]] = []
    samples: List[Dict[str, Any]] = []
    begin = time.perf_counter()
    last = 0.0
    while len(samples) < max(MIN_SAMPLES, len(traced)) or (
        time.perf_counter() - begin + last / 2 <= seconds
    ):
        started = time.perf_counter()
        k = len(samples)
        options = dict(base, seed=batch.sample_seed(seed, k))
        trace = traced[k % len(traced)]
        setup, sample = spawner.run(dict(options, trace=trace, spot_check=not k))
        setups.append((scaled(setup, sample["setup_probe"]), setup))
        sample["raw_seconds"] = sample["seconds"]
        sample["seconds"] = scaled(sample["seconds"], sample["job_probe"], batch.jobs)
        sample["traced"] = trace
        sample["seed"] = options["seed"]
        samples.append(sample)
        last = time.perf_counter() - started
    return setups, samples


def _batch_gate(batch: Batch, samples: List[Dict[str, Any]]) -> List[str]:
    """Job errors and pin misses."""
    errors = [e for sample in samples for e in sample["errors"]]
    for k, sample in enumerate(samples):
        pinned = batch.pins(sample["seed"])
        if pinned is not None and sample["shas"] != pinned:
            errors.append(f"sample {k}: shas {sample['shas']} != pinned {pinned}")
    return errors


def run_batch(batch: Batch, seed: int, seconds: float, trace: bool,
              work: Path) -> Dict[str, Any]:
    setups, samples = _batch_samples(
        batch, seed, seconds, work, (False, True) if trace else (False,)
    )
    errors = _batch_gate(batch, samples)
    attempted = sum(sample["items"] for sample in samples)
    failed = attempted if errors else 0
    plain = [s for s in samples if not s["traced"]]
    rate = items_per_second(plain)
    if trace:
        traced = [s for s in samples if s["traced"]]
        traced_rate = items_per_second(traced)
        layers: Dict[str, List[float]] = {}
        for sample in traced:
            # Layer times at the reference CPU speed, like the job's.
            found = _at_reference(sample["layers"], sample["job_probe"]["kernel_s"])
            found["setup.import_s"] = at_reference_speed(
                sample["import_s"], sample["setup_probe"]["kernel_s"], REFERENCE_KERNEL_S)
            for key in ("items", "batches", "memo_hits", "failover_items"):
                found[f"exec.{key}"] = sample["exec"][key]
            for name, value in found.items():
                layers.setdefault(_RENAMED.get(name, name), []).append(value)
        metrics = {name: median(values) for name, values in layers.items()}
        metrics.update({
            "trace.items_per_s": traced_rate,
            "trace.untraced_items_per_s": rate,
            "trace.overhead": 1.0 - traced_rate / rate,
        })
    else:
        metrics = {
            "items_per_s": rate,
            # One caller waits for each whole job.
            "p50_ms": median([1000.0 * s["seconds"] for s in plain]),
            "setup_s": median([setup for setup, _ in setups]),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in plain]),
        }
    raw = {
        "items_per_s": items_per_second(plain, "raw_seconds"),
        "p50_ms": median([1000.0 * s["raw_seconds"] for s in plain]),
        "setup_s": median([setup for _, setup in setups]),
    }
    return {"errors": errors, "attempted": attempted, "failed": failed,
            "metrics": metrics,
            "spans": [s.pop("spans") for s in samples if s["traced"]],
            "detail": {"samples": len(samples), "setups": len(setups),
                       "unscaled": raw,
                       "probe_kernel_s": [s["job_probe"]["kernel_s"] for s in samples],
                       "shas": [sample["shas"] for sample in samples]}}


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------

HOST = "127.0.0.1"
#: Concurrent connections of the client: the host's CPU count.
CALLERS = os.cpu_count() or 1
#: Base models of the edited-model traffic, and their size.
SERVE_BASES = 4
SERVE_TASKS = 80
#: Repeat probability handed to the stream generator.  Repeats of a model
#: sent in an earlier phase are dropped (phases are disjoint), which
#: leaves about 15 % store hits inside each timed phase.
SERVE_REPEATS = 0.25
#: Share of ``/v1/assign`` requests in the timed phases, and in warm-up
#: (higher there, to fill the daemon's stability-bound table).
ASSIGN_SHARE = 0.1
WARM_ASSIGN_SHARE = 0.5
WARM_REQUESTS = 300
#: The timed traffic alternates in this many rounds; each round is one
#: open-loop segment and one closed-loop slice, followed by one more
#: daemon start for ``setup_s``.  The open-loop segments together send
#: ``rate * seconds`` requests.
ROUNDS = 5
#: Requests of one closed-loop slice (about a second of work on a 2-CPU
#: host).  A fixed count, not a fixed time, keeps the daemon's request
#: count -- and so its heap and its garbage-collection pauses -- the same
#: at every open-loop segment, however fast the host runs.
CLOSED_PER_ROUND = 120


def _import_repro() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def quickstart_systems(seed: int, count: int) -> List[Any]:
    """Small catalogue systems in the quickstart shape: plants, no bounds.

    Drawn from the ``benchmark_baseline`` scenario; priorities and
    explicit stability bounds are dropped, so the daemon derives bounds
    from the plants and searches priorities (``examples/system.json``).
    """
    from repro.api import ControlTaskSystem
    from repro.scenarios import get_scenario

    spec = get_scenario("benchmark_baseline")
    systems: List[Any] = []
    index = 0
    while len(systems) < count:
        instance = spec.instance(index, 7 + seed)
        index += 1
        if not instance.assigned or instance.analysis is None:
            continue
        tasks = []
        for task in instance.analysis:
            entry = {"name": task.name, "period": task.period,
                     "wcet": task.wcet, "bcet": task.bcet}
            if task.plant_name is not None:
                entry["plant"] = task.plant_name
            tasks.append(entry)
        systems.append(ControlTaskSystem.from_dict({
            "name": f"quickstart-{index - 1}",
            "priority_policy": "backtracking",
            "tasks": tasks,
        }))
    return systems


def edited_phases(seed: int, counts: Sequence[int]) -> List[List[Any]]:
    """Edited-model requests split into phases with no model in two.

    ``SERVE_BASES`` base models take turns, so the cost of a run does not
    hang on the shape of one base model.
    """
    from repro.scenarios import edited_model_request_stream

    quotas = [-(-count // SERVE_BASES) for count in counts]
    per_base = []
    for base in range(SERVE_BASES):
        stream = edited_model_request_stream(
            2 * sum(quotas) + 16, n_tasks=SERVE_TASKS,
            repeat_fraction=SERVE_REPEATS, seed=11 + SERVE_BASES * seed + base,
        )
        phases: List[List[Any]] = [[] for _ in counts]
        owner: Dict[int, int] = {}
        position = 0
        for phase, quota in enumerate(quotas):
            while len(phases[phase]) < quota:
                system = stream[position]
                position += 1
                if owner.setdefault(id(system), phase) == phase:
                    phases[phase].append(system)
        per_base.append(phases)
    return [
        [per_base[i % SERVE_BASES][phase][i // SERVE_BASES] for i in range(count)]
        for phase, count in enumerate(counts)
    ]


@dataclass
class Request:
    path: str
    body: bytes


def serve_inputs(seed: int, counts: Sequence[int]) -> List[List[Request]]:
    """Warm-up, open-loop and closed-loop requests, in that order."""
    rng = random.Random(seed)
    kinds = [
        [rng.random() < (WARM_ASSIGN_SHARE if phase == 0 else ASSIGN_SHARE)
         for _ in range(count)]
        for phase, count in enumerate(counts)
    ]
    analyzed = edited_phases(seed, [k.count(False) for k in kinds])
    assigned = iter(quickstart_systems(seed, sum(k.count(True) for k in kinds)))
    phases = []
    for phase, phase_kinds in enumerate(kinds):
        models = iter(analyzed[phase])
        phases.append([
            Request("/v1/assign", json.dumps(next(assigned).to_dict()).encode())
            if is_assign else
            Request("/v1/analyze", json.dumps(next(models).to_dict()).encode())
            for is_assign in phase_kinds
        ])
    return phases


def expected_bodies(requests: Sequence[Request]) -> Dict[Tuple[str, bytes], bytes]:
    """Direct façade output for each distinct request.

    Analyses run through one analysis memo (byte-identical to a cold
    ``analyze()`` by the library's contract); a sample is re-checked
    against cold calls so the verifier does not rely on that alone.
    """
    from repro.api import ControlTaskSystem, analyze, assign
    from repro.memo import AnalysisMemo

    memo = AnalysisMemo()
    expected: Dict[Tuple[str, bytes], bytes] = {}
    for request in requests:
        key = (request.path, request.body)
        if key in expected:
            continue
        system = ControlTaskSystem.from_dict(json.loads(request.body))
        if request.path == "/v1/analyze":
            body = analyze(system, memo=memo).report_json()
        else:
            body = assign(system).outcome_json()
        expected[key] = body.encode("utf-8")
    analyses = sorted(k for k in expected if k[0] == "/v1/analyze")
    for key in random.Random(len(analyses)).sample(analyses, min(8, len(analyses))):
        cold = analyze(ControlTaskSystem.from_dict(json.loads(key[1]))).report_json()
        if cold.encode("utf-8") != expected[key]:
            raise BenchError("memoised verifier disagrees with a cold analyze()")
    return expected


class Daemon:
    """One ``repro serve`` process on an ephemeral port, started through
    the benchmark's launcher with its speed probe (and, given a spans
    file, the layer spans).  ``index`` names its probe file in ``work``."""

    def __init__(self, work: Path, index: int, spans: Optional[Path] = None,
                 cpus: Optional[Set[int]] = None):
        self.log = open(work / "daemon.log", "ab")
        self.probe = work / f"daemon-probe-{index}.txt"
        argv = [sys.executable, str(BENCH / "serve_launcher.py"), str(self.probe),
                "-" if spans is None else str(spans), "--port", "0"]
        self.port: Optional[int] = None
        start = time.perf_counter()
        self.proc = spawn(argv, cpus, stdout=subprocess.PIPE, stderr=self.log)
        try:
            line = self.proc.stdout.readline().decode()
            self.port = int(line.split(f"http://{HOST}:")[1].split()[0])
            health = client.encode(HOST, self.port, "GET", "/v1/health")
            deadline = start + 60.0
            while client.call(HOST, self.port, health)[0] != 200:
                if time.perf_counter() > deadline:
                    raise BenchError("daemon never became healthy")
                time.sleep(0.002)
        except (IndexError, ValueError):
            self.close()
            raise BenchError(f"daemon did not announce its port: {line!r}")
        except BaseException:
            self.close()
            raise
        ready = time.perf_counter()
        try:
            samples = self.probe_samples(start, ready)
            kernel = self.kernel_s(samples)
        except BaseException:
            self.close()
            raise
        self.raw_setup_s = ready - start
        self.setup_s = at_reference_speed(self.raw_setup_s - sum(samples), kernel,
                                          REFERENCE_KERNEL_S)

    def probe_samples(self, start: float, end: float) -> List[float]:
        return [seconds for at, seconds in read_samples(str(self.probe))
                if start <= at < end]

    @staticmethod
    def kernel_s(samples: List[float]) -> float:
        if not samples:
            raise BenchError("the daemon's speed probe took no samples")
        return trimmed_mean(samples)

    def get(self, path: str) -> Dict[str, Any]:
        status, body, error = client.call(
            HOST, self.port, client.encode(HOST, self.port, "GET", path)
        )
        if status != 200:
            raise BenchError(f"GET {path}: {status or error}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def close(self) -> None:
        if self.proc.poll() is None and self.port is not None:
            client.call(HOST, self.port,
                        client.encode(HOST, self.port, "POST", "/v1/shutdown"))
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        _stop(self.proc)
        self.proc.stdout.close()
        self.log.close()


def _raw(daemon: Daemon, requests: Sequence[Request]) -> List[bytes]:
    return [client.encode(HOST, daemon.port, "POST", r.path, r.body) for r in requests]


def _account(outcomes, requests: Sequence[Request],
             expected: Dict[Tuple[str, bytes], bytes]) -> Tuple[Tally, List[bool]]:
    """Classify each sent request; a 200 with other bytes is a mismatch."""
    tally = Tally()
    good = []
    for outcome in outcomes:
        request = requests[outcome.index]
        if outcome.error:
            kind = outcome.error
        elif outcome.status != 200:
            kind = "http_error"
        elif outcome.body != expected[(request.path, request.body)]:
            kind = "mismatch"
        else:
            kind = "ok"
        tally.add(kind)
        good.append(kind == "ok")
    return tally, good


def _shifted(outcomes: List[client.Outcome], offset: int) -> List[client.Outcome]:
    for outcome in outcomes:
        outcome.index += offset
    return outcomes


def _serve_rounds(daemon: Daemon, phases: List[List[Request]], rate: float,
                  open_loop: bool,
                  spare: Optional[Callable[[], None]] = None) -> Dict[str, Any]:
    """Warm-up, then ``ROUNDS`` rounds of an open-loop segment and a
    closed-loop slice, so both phases sample the host over the whole run.

    ``spare`` (a timed daemon start) runs after each slice, while the
    measured daemon is idle.
    """
    warm, timed_open, timed_closed = (_raw(daemon, phase) for phase in phases)
    _, warm_out = client.closed_loop(HOST, daemon.port, warm, CALLERS)
    before = daemon.get("/v1/stats")
    open_out: List[client.Outcome] = []
    closed_out: List[client.Outcome] = []
    slices: List[float] = []
    windows: Dict[str, List[Tuple[float, float]]] = {"open": [], "closed": []}
    per_round = -(-len(timed_open) // ROUNDS)
    for round_index in range(ROUNDS):
        if open_loop:
            first = round_index * per_round
            segment = timed_open[first:first + per_round]
            started = time.perf_counter()
            open_out += _shifted(
                client.open_loop(HOST, daemon.port, segment, rate, CALLERS), first)
            windows["open"].append((started, time.perf_counter()))
        first = round_index * CLOSED_PER_ROUND
        slice_start, outcomes = client.closed_loop(
            HOST, daemon.port, timed_closed[first:first + CLOSED_PER_ROUND], CALLERS)
        windows["closed"].append((slice_start, time.perf_counter()))
        closed_out += _shifted(outcomes, first)
        slices.append(slice_start)
        if spare is not None:
            spare()
    after = daemon.get("/v1/stats")
    # The daemon's speed in each open-loop segment and closed-loop slice.
    kernels = {name: [daemon.kernel_s(daemon.probe_samples(*window))
                      for window in spans]
               for name, spans in windows.items()}
    lifetime = daemon.kernel_s(daemon.probe_samples(0.0, math.inf))
    return {"warm": warm_out, "open": open_out, "closed": closed_out,
            "slices": slices, "stats": (before, after), "kernels": kernels,
            "kernel_s": lifetime,
            "per_round": per_round, "peak_rss_mb": daemon.peak_rss_mb()}


def split_cpus() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """CPUs of the client and of the daemon: the first one, and the rest.

    Apart, the client never preempts the daemon, and the probe in the
    daemon's main thread runs on the core its batcher thread computes
    on; sharing both cores, the probe's kernel time swung by 30 % from
    one closed-loop slice to the next with the client's wake-ups.  On a
    single CPU the two share it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


def run_serve(seed: int, seconds: float, trace: bool, work: Path,
              rate: float) -> Dict[str, Any]:
    client_cpus, daemon_cpus = split_cpus()
    if client_cpus is not None:
        # The client's threads inherit this process's affinity.
        os.sched_setaffinity(0, client_cpus)
    _import_repro()
    n_open = int(round(rate * seconds))
    phases = serve_inputs(seed, [WARM_REQUESTS, n_open, ROUNDS * CLOSED_PER_ROUND])
    runs: List[Dict[str, Any]] = []
    #: ``(scaled, raw)`` set-up seconds of every daemon start.
    setups: List[Tuple[float, float]] = []

    def start(spans: Optional[Path] = None) -> Daemon:
        daemon = Daemon(work, len(setups), spans, daemon_cpus)
        setups.append((daemon.setup_s, daemon.raw_setup_s))
        return daemon

    def spare_start() -> None:
        start().close()

    spans_path = work / "spans.json"
    if trace:
        plan = [(None, False, None), (spans_path, True, None)]
    else:
        plan = [(None, True, spare_start)]
    for spans, open_loop, spare in plan:
        daemon = start(spans)
        try:
            runs.append(_serve_rounds(daemon, phases, rate, open_loop, spare))
        finally:
            daemon.close()

    names = ("warm", "open", "closed")
    expected = expected_bodies([
        phase[outcome.index]
        for run in runs for name, phase in zip(names, phases)
        for outcome in run[name]
    ])
    tally = Tally()
    for run in runs:
        for name, phase in zip(names, phases):
            phase_tally, good = _account(run[name], phase, expected)
            run[f"{name}_good"] = good
            run[f"{name}_tally"] = phase_tally.counts
            tally = tally.merged(phase_tally)

    def throughput(run: Dict[str, Any], scale: bool = True) -> float:
        """Median over the closed-loop slices of good replies per second,
        each scaled to the reference CPU speed by the daemon's probe."""
        done = [o.done for o, ok in zip(run["closed"], run["closed_good"]) if ok]
        bounds = run["slices"] + [math.inf]
        return median([
            completion_rate(start, [t for t in done if start <= t < until])
            * (kernel / REFERENCE_KERNEL_S if scale else 1.0)
            for start, until, kernel in zip(bounds, bounds[1:], run["kernels"]["closed"])
        ])

    def latencies(run: Dict[str, Any], scale: bool = True) -> List[float]:
        """Open-loop latencies from the due time, each scaled by the
        daemon's probe over its segment; a failure is ``inf``."""
        kernels, per_round = run["kernels"]["open"], run["per_round"]
        found = []
        for outcome, ok in zip(run["open"], run["open_good"]):
            latency = latency_from_due(outcome.due, outcome.done if ok else None)
            if scale:
                latency = at_reference_speed(
                    latency, kernels[outcome.index // per_round], REFERENCE_KERNEL_S)
            found.append(latency)
        return found

    errors: List[str] = []
    detail: Dict[str, Any] = {
        "phases": [{k: run[f"{k}_tally"] for k in names} for run in runs],
        "store": [run["stats"][1]["store"] for run in runs],
    }
    measured = runs[-1]
    cap_ms = 1000.0 * client.TIMEOUT_S

    def ms(seconds_value: float) -> float:
        return min(cap_ms, 1000.0 * seconds_value)

    if trace:
        with open(spans_path) as handle:
            launched = json.load(handle)
        layers = dict(serve_layers(launched["spans"]), **{
            "setup.import_s": launched["import_s"]})
        metrics: Dict[str, float] = {
            _RENAMED.get(k, k): v
            for k, v in _at_reference(layers, measured["kernel_s"]).items()
        }
        before, after = (s["memo"] for s in measured["stats"])
        evaluations = after["evaluations"] - before["evaluations"]
        metrics["memo.hit_ratio"] = (
            (after["cache_hits"] - before["cache_hits"]) / evaluations
            if evaluations else 0.0
        )
        metrics["client.late_ms"] = 1000.0 * tail_or_median(
            [lateness(o.due, o.sent) for o in measured["open"]], 99)
        spans = [launched["spans"]]
        traced_rate, plain_rate = throughput(runs[1]), throughput(runs[0])
        metrics.update({
            "trace.items_per_s": traced_rate,
            "trace.untraced_items_per_s": plain_rate,
            "trace.overhead": 1.0 - traced_rate / plain_rate,
        })
    else:
        spans = []
        scaled_latencies = latencies(measured)
        metrics = {
            "items_per_s": throughput(measured),
            "p50_ms": ms(median(scaled_latencies)),
            "setup_s": median([setup for setup, _ in setups]),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        raw_latencies = latencies(measured, scale=False)
        detail["unscaled"] = {
            "items_per_s": throughput(measured, scale=False),
            "p50_ms": ms(median(raw_latencies)),
            "setup_s": median([setup for _, setup in setups]),
        }
        detail["probe_kernel_s"] = measured["kernels"]
        # Reported, not gated: with ten samples beyond it, one run's p99
        # swings with the daemon's garbage-collection pauses (tens of ms,
        # longer as its heap grows) and with host stalls, far more than a
        # regression bound can absorb.
        tail = percentile(scaled_latencies, 99)
        raw_tail = percentile(raw_latencies, 99)
        detail["open_loop"] = {"samples": len(scaled_latencies),
                               "p99_ms": None if tail is None else ms(tail),
                               "unscaled_p99_ms": None if raw_tail is None else ms(raw_tail)}
    if tally.counts["mismatch"]:
        errors.append(f"{tally.counts['mismatch']} responses differ from the façade")
    return {
        "errors": errors, "attempted": tally.sent, "failed": tally.failed,
        "metrics": metrics, "spans": spans, "detail": detail,
    }


# ----------------------------------------------------------------------
# Workloads, host facts, entry point
# ----------------------------------------------------------------------


def _batch(batch: Batch) -> Callable[..., Dict[str, Any]]:
    return lambda seed, seconds, trace, work, rate: run_batch(
        batch, seed, seconds, trace, work)


#: Sample 0 of every run is the pinned job (census seed 424242, scenario
#: seed 7), so every run checks the pin; the later samples are drawn from
#: ``--seed``, so a run's figure spans several task-set or instance draws
#: instead of one.  At seed 0 the scenario samples are seeds 7, 8, ...,
#: whose first eight shas are pinned.
CENSUS_SEED = 424242
SCENARIO_SEED = 7


def _census_seed(seed: int, k: int) -> int:
    return CENSUS_SEED if k == 0 else CENSUS_SEED + 1000 * (seed + 1) + k


def _scenario_seed(seed: int, k: int) -> int:
    return SCENARIO_SEED if k == 0 else SCENARIO_SEED + 100 * seed + k


CENSUS = dict(sample_seed=_census_seed,
              pins=lambda job: [CENSUS_PIN] if job == CENSUS_SEED else None)
SCENARIOS = dict(
    sample_seed=_scenario_seed,
    pins=lambda job: (SCENARIO_PINS[job - SCENARIO_SEED]
                      if 0 <= job - SCENARIO_SEED < len(SCENARIO_PINS) else None),
)

#: Why each workload exists is also stated in BENCHMARK.json.
WORKLOADS: Dict[str, Callable[..., Dict[str, Any]]] = {
    # The paper's headline computation: 1002 task sets through
    # generation, LQG bounds, backtracking and three detector families.
    # A cold process pays for the stability-bound table, as every
    # ``repro sweep census`` user does.
    "census": _batch(Batch("census", 1, **CENSUS)),
    # The only workload that runs the execution plane's pool layer.
    "census_pool": _batch(Batch("census", 2, **CENSUS)),
    # Monte-Carlo validation: mostly repro.sim, little RTA, so it moves
    # with the simulators and the bound table, not with RTA changes.
    "scenarios": _batch(Batch("scenarios", 1, **SCENARIOS)),
    # The only path through parse, store, batcher and encode and through
    # the daemon-lifetime memo; with the bounds warm it mostly bypasses
    # bound-table work.
    "serve": run_serve,
}


def reference_loop() -> float:
    """Seconds of a fixed pure-Python loop (median of five)."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return median(times)


def source_sha() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_facts() -> Dict[str, Any]:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "git_sha": git_sha, "src_sha256": source_sha(),
            "fixed_layout": _PERSONALITY is not None}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rate", type=float, default=None,
                        help="offered open-loop rate of the serve workload (req/s)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "serve" and not args.rate:
        parser.error("the serve workload needs --rate")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    facts = host_facts()
    facts["reference_loop_s"] = [reference_loop()]
    try:
        result = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), work, args.rate)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts["reference_loop_s"].append(reference_loop())
    if args.trace:
        # Spans of the traced samples, rows ``[id, name, start, end,
        # parent, item]``, kept for a closer look at where time went.
        trace_file = WORK / f"trace-{args.workload}.json"
        trace_file.write_text(json.dumps(result["spans"]))
        result["detail"]["spans_file"] = str(trace_file.relative_to(ROOT))
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(result["metrics"].get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"host": facts, "workload": args.workload, "seed": args.seed,
                      "detail": result["detail"], "errors": result["errors"]}))
    print(json.dumps({"correct": not result["errors"],
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if not result["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())
