"""Equivalence pinning: the façade vs the legacy per-module plumbing.

Before the façade, every consumer package hand-plumbed RTA -> (L, J) ->
margin.  These tests pin that :func:`repro.api.analyze` /
:func:`repro.api.task_verdict` reproduce that plumbing *byte-for-byte*
(verdicts and interfaces serialised to canonical JSON) on hundreds of
random UUniFast control task sets, so the consumer refactors cannot have
changed a single verdict.
"""

from __future__ import annotations

import json

import numpy as np

from repro.api import analyze, analyze_batch, task_verdict
from repro.api.service import assign
from repro.memo import AnalysisMemo
from repro.benchgen.uunifast import uunifast
from repro.jittermargin.linearbound import LinearStabilityBound
from repro.rta.popbatch import analyze_taskset
from repro.rta.interface import latency_jitter
from repro.rta.taskset import Task, TaskSet
from repro.sweep.result import encode_nonfinite

#: Task sets checked by the byte-match sweeps (ISSUE floor: >= 200).
N_TASKSETS = 250


def _random_control_taskset(rng: np.random.Generator, n: int) -> TaskSet:
    """A priority-assigned UUniFast set; some tasks carry linear bounds."""
    utilization = float(rng.uniform(0.3, 0.95))
    shares = uunifast(n, utilization, rng)
    periods = rng.choice([1.0, 2.0, 2.5, 4.0, 5.0, 8.0, 10.0, 20.0], size=n)
    order = rng.permutation(n)
    tasks = []
    for k, (share, period) in enumerate(zip(shares, periods)):
        wcet = min(max(share * period, 1e-6), period)
        bcet = max(wcet * float(rng.uniform(0.2, 1.0)), 1e-9)
        stability = None
        if rng.uniform() < 0.7:
            stability = LinearStabilityBound(
                a=1.0 + float(rng.uniform(0.0, 1.5)),
                b=float(period) * float(rng.uniform(0.1, 1.2)),
            )
        tasks.append(
            Task(
                name=f"t{k}",
                period=float(period),
                wcet=float(wcet),
                bcet=float(bcet),
                priority=int(order[k]) + 1,
                stability=stability,
            )
        )
    return TaskSet(tasks)


def _legacy_verdicts(taskset: TaskSet) -> dict:
    """The pre-façade per-module plumbing, inlined verbatim.

    This is the loop that ``assignment.validate``, the anomaly
    detectors, and the scenario harness each re-implemented: per-task
    scalar RTA, then deadline + bound checks, then the slack.
    """
    verdicts = {}
    for task in taskset:
        times = latency_jitter(task, taskset.higher_priority(task))
        deadline_met = times.finite
        if task.stability is None:
            stable = True
            slack = None
        elif not deadline_met:
            stable = False
            slack = float("-inf")
        else:
            stable = bool(
                task.stability.is_stable(times.latency, times.jitter)
            )
            slack = float(task.stability.slack(times.latency, times.jitter))
        verdicts[task.name] = {
            "deadline_met": deadline_met,
            "stable": stable,
            "ok": deadline_met and stable,
            "slack": slack,
        }
    return {
        "valid": all(v["ok"] for v in verdicts.values()),
        "violating": [
            t.name for t in taskset if not verdicts[t.name]["ok"]
        ],
        "tasks": verdicts,
    }


def _canon(payload) -> str:
    return json.dumps(
        encode_nonfinite(payload),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


class TestAnalyzeEquivalence:
    def test_verdicts_byte_match_legacy_plumbing(self):
        """analyze() verdicts == the hand-plumbed per-task pipeline.

        The boolean verdict structure (deadlines, stability, violating
        sets, system rollup) must byte-match the scalar plumbing.  Since
        the batched pass adopted the scalar summation order (the shared
        analysis-memo contract), the slack *values* are bit-identical
        too -- checked exactly, not at the historical 1e-9 tolerance.
        """
        rng = np.random.default_rng(20170331)
        checked = 0
        violating_seen = 0
        for _ in range(N_TASKSETS):
            n = int(rng.integers(2, 10))
            taskset = _random_control_taskset(rng, n)
            report = analyze(taskset)
            legacy = _legacy_verdicts(taskset)
            facade = {
                "valid": report.stable,
                "violating": list(report.violating),
                "tasks": {
                    v.name: {
                        "deadline_met": v.deadline_met,
                        "stable": v.stable,
                        "ok": v.ok,
                    }
                    for v in report.verdicts
                },
            }
            legacy_bools = {
                "valid": legacy["valid"],
                "violating": legacy["violating"],
                "tasks": {
                    name: {k: entry[k] for k in ("deadline_met", "stable", "ok")}
                    for name, entry in legacy["tasks"].items()
                },
            }
            assert _canon(facade) == _canon(legacy_bools)
            for v in report.verdicts:
                legacy_slack = legacy["tasks"][v.name]["slack"]
                assert v.slack == legacy_slack
            checked += n
            violating_seen += len(report.violating)
        assert checked > 1000
        # The drawn population must exercise both verdict branches.
        assert violating_seen > 0

    def test_interfaces_byte_match_batched_glue(self):
        """analyze() interfaces == the PR-1 batched consumer path, exactly."""
        rng = np.random.default_rng(20170401)
        for _ in range(N_TASKSETS):
            taskset = _random_control_taskset(rng, int(rng.integers(2, 10)))
            report = analyze(taskset)
            batched = analyze_taskset(taskset)
            facade_times = {
                v.name: [v.times.best, v.times.worst] for v in report.verdicts
            }
            legacy_times = {
                name: [times.best, times.worst]
                for name, times in batched.times.items()
            }
            assert _canon(facade_times) == _canon(legacy_times)
            assert report.stable == batched.stable
            assert report.violating == batched.violating

    def test_task_verdict_byte_matches_scalar_interface(self):
        """task_verdict() carries exactly latency_jitter()'s numbers."""
        rng = np.random.default_rng(20170402)
        for _ in range(60):
            taskset = _random_control_taskset(rng, int(rng.integers(2, 8)))
            for task in taskset:
                hp = taskset.higher_priority(task)
                verdict = task_verdict(task, hp)
                times = latency_jitter(task, hp)
                assert verdict.times.best == times.best
                assert verdict.times.worst == times.worst


class TestMemoEquivalence:
    """The shared-memo acceptance bar: memoised == fresh, byte for byte.

    One process-lifetime :class:`~repro.memo.AnalysisMemo` (the serve
    daemon's shape) is shared across the whole population; every
    memoised report -- cold entries, warm replays, LRU-interned tasks
    from earlier sets -- must serialise to exactly the bytes of a
    memo-less ``analyze()``.
    """

    def test_memoised_analyze_bytes_match_fresh_across_population(self):
        rng = np.random.default_rng(20170403)
        memo = AnalysisMemo()
        population = [
            _random_control_taskset(rng, int(rng.integers(2, 10)))
            for _ in range(N_TASKSETS)
        ]
        for taskset in population:
            fresh = analyze(taskset).report_json()
            assert analyze(taskset, memo=memo).report_json() == fresh
        # Second sweep: every subproblem replays from the warm memo and
        # the bytes still cannot move.
        hits_before = memo.stats()["cache_hits"]
        for taskset in population:
            fresh = analyze(taskset).report_json()
            assert analyze(taskset, memo=memo).report_json() == fresh
        stats = memo.stats()
        assert stats["cache_hits"] - hits_before >= stats["memo_entries"]

    def test_memoised_assign_bytes_match_fresh_across_population(self):
        """``assign(validation_memo=...)`` over the population.

        The daemon's mode: the search runs cold (its ``cache_hits``
        counter is part of the canonical outcome), only the validation
        analysis rides the shared memo.  Outcome bytes must equal a
        fully cold ``assign()`` on every set.
        """
        rng = np.random.default_rng(20170404)
        memo = AnalysisMemo()
        for _ in range(N_TASKSETS):
            taskset = _random_control_taskset(rng, int(rng.integers(2, 8)))
            cold = assign(taskset, algorithm="audsley").outcome_json()
            warm = assign(
                taskset, algorithm="audsley", validation_memo=memo
            ).outcome_json()
            assert warm == cold
        assert memo.stats()["recomputations"] > 0


class TestBatchDeterminism:
    def test_reports_identical_across_job_counts(self):
        rng = np.random.default_rng(7)
        systems = [
            _random_control_taskset(rng, int(rng.integers(2, 7)))
            for _ in range(12)
        ]
        serial = analyze_batch(systems, jobs=1, chunk_size=4)
        pooled = analyze_batch(systems, jobs=2, chunk_size=4)
        assert [r.canonical_json() for r in serial] == [
            r.canonical_json() for r in pooled
        ]

    def test_batch_matches_single_analyze(self):
        rng = np.random.default_rng(11)
        systems = [_random_control_taskset(rng, 4) for _ in range(6)]
        batch = analyze_batch(systems, jobs=1)
        singles = [analyze(ts, name=f"system-{k}") for k, ts in enumerate(systems)]
        assert [r.canonical_json() for r in batch] == [
            r.canonical_json() for r in singles
        ]
