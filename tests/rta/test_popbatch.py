"""Equivalence tests of the population kernel tier (RTA half).

The contract under test is *bit-identity*: for any population,
:func:`repro.rta.popbatch.analyze_population` must return exactly the
floats of a serial record-kernel pass over each set (one
:func:`repro.memo.kernels.evaluate_candidate` call per task against
``taskset.higher_priority(task)``), and
:func:`repro.rta.popbatch.evaluate_problems` exactly those of
per-candidate ``evaluate_candidate`` calls -- including infinities,
verdicts, and the position of the first
:class:`~repro.errors.ScheduleError`.  Both are also held to the
reference analyses of :mod:`repro.rta.wcrt` / :mod:`repro.rta.bcrt` on
wide (log-uniform) period ranges and saturated hp sets.  Equality below
is ``==`` on floats, never ``approx``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen.uunifast import uunifast
from repro.errors import ScheduleError
from repro.memo.kernels import evaluate_candidate, make_record
from repro.rta import popbatch
from repro.rta.interface import TasksetAnalysis, latency_jitter
from repro.rta.popbatch import (
    MIN_PROBLEM_POPULATION,
    analyze_population,
    analyze_taskset,
    evaluate_problems,
)
from repro.rta.taskset import Task, TaskSet


def _random_taskset(rng: np.random.Generator, n: int, *, utilization=None) -> TaskSet:
    """A priority-assigned UUniFast task set with random rational periods."""
    if utilization is None:
        utilization = float(rng.uniform(0.3, 0.95))
    shares = uunifast(n, utilization, rng)
    periods = rng.choice([1.0, 2.0, 2.5, 4.0, 5.0, 8.0, 10.0, 20.0], size=n)
    tasks = []
    for k, (share, period) in enumerate(zip(shares, periods)):
        wcet = min(max(share * period, 1e-6), period)
        bcet = max(wcet * float(rng.uniform(0.2, 1.0)), 1e-9)
        tasks.append(
            Task(
                name=f"t{k}",
                period=float(period),
                wcet=float(wcet),
                bcet=float(bcet),
                priority=n - k,
            )
        )
    return TaskSet(tasks)


def _wide_taskset(rng: np.random.Generator, n: int) -> TaskSet:
    """Log-uniform periods over 1e-3..1e7 s; hp utilisation may saturate.

    The total utilisation is drawn up to 1.5 and the top task may use
    its whole period, so lower tasks see hp sets at, near and past
    utilisation 1.  Half the tasks shrink their share by up to 1e-10,
    which gives interferers whose period is many orders of magnitude
    longer than the response they interfere with, yet whose one job
    fits before the deadline.
    """
    utilization = float(rng.uniform(0.2, 1.5))
    shares = uunifast(n, utilization, rng)
    shrink = 10.0 ** rng.uniform(-10.0, 0.0, size=n)
    shares *= np.where(rng.integers(0, 2, size=n) == 1, shrink, 1.0)
    periods = 10.0 ** rng.uniform(-3.0, 7.0, size=n)
    saturate = bool(rng.integers(0, 4) == 0)
    tasks = []
    for k, (share, period) in enumerate(zip(shares, periods)):
        wcet = period if saturate and k == 0 else min(
            max(share * period, 1e-9), period
        )
        bcet = max(wcet * float(rng.uniform(0.2, 1.0)), 1e-12)
        tasks.append(
            Task(
                name=f"t{k}",
                period=float(period),
                wcet=float(wcet),
                bcet=float(bcet),
                priority=n - k,
            )
        )
    return TaskSet(tasks)


def _record_loop(taskset: TaskSet) -> TasksetAnalysis:
    """The serial record-kernel pass over one set, task by task."""
    tasks = list(taskset)
    records = {
        t.name: make_record(t.period, t.wcet, t.bcet, t.stability, t.name)
        for t in tasks
    }
    return TasksetAnalysis.build(
        tasks,
        [
            evaluate_candidate(
                records[t.name],
                [records[h.name] for h in taskset.higher_priority(t)],
            )
            for t in tasks
        ],
    )


#: A population of this many task sets (of one task or more) poses at
#: least ``MIN_PROBLEM_POPULATION`` subproblems, so it reaches the
#: stacked kernels.
_STACKED_SETS = MIN_PROBLEM_POPULATION


def _outcome(compute):
    """The value of ``compute()``, or the ScheduleError it raises."""
    try:
        return compute()
    except ScheduleError as exc:
        return ("ScheduleError", str(exc))


def _assert_identical(population, scalar):
    """Bitwise comparison of analysis lists (== on every float)."""
    assert len(population) == len(scalar)
    for got, want in zip(population, scalar):
        assert got.deadlines_met == want.deadlines_met
        assert got.stable == want.stable
        assert got.violating == want.violating
        assert set(got.times) == set(want.times)
        for name, interface in want.times.items():
            assert got.times[name].best == interface.best
            assert got.times[name].worst == interface.worst


class TestAnalyzePopulationEquivalence:
    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        counts=st.lists(st.integers(1, 16), min_size=1, max_size=24),
    )
    def test_mixed_population_matches_scalar_loop(self, seed, counts):
        # Mixed task counts 1-16: populations below and above the
        # stacking gate, and single
        # sets of up to 16 tasks through analyze_taskset.
        rng = np.random.default_rng(seed)
        tasksets = [_random_taskset(rng, n) for n in counts]
        scalar = [_record_loop(ts) for ts in tasksets]
        _assert_identical(analyze_population(tasksets), scalar)
        _assert_identical([analyze_taskset(ts) for ts in tasksets], scalar)

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        counts=st.lists(st.integers(1, 8), min_size=_STACKED_SETS, max_size=48),
    )
    def test_wide_periods_and_saturated_hp_match_reference(self, seed, counts):
        # Stacked, record-kernel and reference analyses agree on every
        # float (or raise the same ScheduleError) even where quotients
        # fall inside the ceiling guard band of zero.
        rng = np.random.default_rng(seed)
        tasksets = [_wide_taskset(rng, n) for n in counts]
        scalar = _outcome(lambda: [_record_loop(ts) for ts in tasksets])
        population = _outcome(lambda: analyze_population(tasksets))
        if isinstance(scalar, tuple):
            assert population == scalar
            return
        _assert_identical(population, scalar)
        for taskset, analysis in zip(tasksets, scalar):
            for task in taskset:
                reference = _outcome(
                    lambda: latency_jitter(task, taskset.higher_priority(task))
                )
                assert reference == analysis.times[task.name]

    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_single_task_sets(self, seed):
        # Degenerate n=1 populations: no interference at all.
        rng = np.random.default_rng(seed)
        tasksets = [_random_taskset(rng, 1) for _ in range(_STACKED_SETS + 4)]
        _assert_identical(
            analyze_population(tasksets),
            [_record_loop(ts) for ts in tasksets],
        )

    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_overloaded_sets_keep_exact_infinities(self, seed):
        # Utilisation near/above 1: deadline misses (inf WCRT) and slow
        # fixed points that trip the straggler fallback.
        rng = np.random.default_rng(seed)
        tasksets = [
            _random_taskset(rng, int(rng.integers(2, 9)), utilization=u)
            for u in rng.uniform(0.97, 1.3, size=_STACKED_SETS + 4)
        ]
        _assert_identical(
            analyze_population(tasksets),
            [_record_loop(ts) for ts in tasksets],
        )

    def test_escape_hatch_forces_batch_tier(self, rng, monkeypatch):
        # With the stacking gate out of reach, a population that would
        # stack runs the record kernel -- the forced-scalar lane the
        # golden re-pin uses -- and equals the serial pass exactly.
        tasksets = [_random_taskset(rng, 6) for _ in range(_STACKED_SETS)]
        want = [_record_loop(ts) for ts in tasksets]
        monkeypatch.setattr(
            popbatch, "MIN_PROBLEM_POPULATION", 6 * len(tasksets) + 1
        )
        _assert_identical(analyze_population(tasksets), want)

    def test_small_population_runs_batch_tier(self, rng):
        # Fewer rows than the stacking gate: the plain record loop.
        tasksets = [_random_taskset(rng, 4) for _ in range(2)]
        _assert_identical(
            analyze_population(tasksets),
            [_record_loop(ts) for ts in tasksets],
        )

    def test_empty_population(self):
        assert analyze_population([]) == []


def _record_problems(rng: np.random.Generator, count: int, *, wide=False):
    """Random candidate problems over one interned record pool.

    ``wide`` draws log-uniform periods over 1e-3..1e7 s and per-record
    utilisations up to 1 -- uniform for half the records, log-uniform
    down to 1e-10 for the rest -- so hp sets range from negligible to
    saturated.
    """
    pool = []
    for i in range(12):
        if wide:
            period = float(10.0 ** rng.uniform(-3.0, 7.0))
            share = float(rng.uniform(0.0, 1.0)) or 1.0
            if i % 2:
                share = float(10.0 ** rng.uniform(-10.0, 0.0))
            wcet = share * period
        else:
            period = float(rng.choice([1.0, 2.0, 2.5, 4.0, 5.0, 10.0]))
            wcet = float(rng.uniform(0.01, 0.4)) * period
        bcet = wcet * float(rng.uniform(0.2, 1.0))
        pool.append(make_record(period, wcet, bcet, None, f"r{i}"))
    problems = []
    for _ in range(count):
        record = pool[int(rng.integers(len(pool)))]
        hp_size = int(rng.integers(0, 6))
        hp = [pool[int(j)] for j in rng.integers(0, len(pool), size=hp_size)]
        problems.append((record, hp))
    return problems


class TestEvaluateProblemsEquivalence:
    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 3 * MIN_PROBLEM_POPULATION),
    )
    def test_matches_scalar_kernels(self, seed, count):
        # Counts straddle the tier gate: empty, the record-kernel
        # loop, and the stacked tier.
        rng = np.random.default_rng(seed)
        problems = _record_problems(rng, count)
        scalar = [evaluate_candidate(r, hp) for r, hp in problems]
        batched = evaluate_problems(problems)
        assert batched == scalar  # tuple == tuple: bitwise float equality

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(MIN_PROBLEM_POPULATION, 3 * MIN_PROBLEM_POPULATION),
    )
    def test_wide_periods_and_saturated_hp_match_scalar(self, seed, count):
        rng = np.random.default_rng(seed)
        problems = _record_problems(rng, count, wide=True)
        scalar = _outcome(
            lambda: [evaluate_candidate(r, hp) for r, hp in problems]
        )
        assert _outcome(lambda: evaluate_problems(problems)) == scalar

    def test_duplicate_problems_share_entries(self, rng):
        # The same (record, hp) posed many times.
        base = _record_problems(rng, MIN_PROBLEM_POPULATION)
        problems = base + base + base
        scalar = [evaluate_candidate(r, hp) for r, hp in problems]
        assert evaluate_problems(problems) == scalar

    def test_escape_hatch_matches(self, rng, monkeypatch):
        # The size gate out of reach forces the record-kernel
        # loop on a population that would stack.
        problems = _record_problems(rng, 2 * MIN_PROBLEM_POPULATION)
        want = [evaluate_candidate(r, hp) for r, hp in problems]
        monkeypatch.setattr(
            popbatch, "MIN_PROBLEM_POPULATION", len(problems) + 1
        )
        assert evaluate_problems(problems) == want

    def test_non_convergent_problem_raises_like_scalar(self, rng):
        # An infinite-period candidate against overloaded hp never
        # converges and never exceeds its (infinite) deadline: the
        # scalar kernel raises ScheduleError, and the stacked tier must
        # surface the same error (straggler fallback re-runs it).
        hp = [make_record(1.0, 1.0, 0.5, None, "hog")]
        bad = (make_record(math.inf, 1.0, 0.5, None, "bad"), hp)
        problems = _record_problems(rng, 2 * MIN_PROBLEM_POPULATION)
        problems.insert(7, bad)
        with pytest.raises(ScheduleError):
            [evaluate_candidate(r, h) for r, h in problems]
        with pytest.raises(ScheduleError):
            evaluate_problems(problems)
