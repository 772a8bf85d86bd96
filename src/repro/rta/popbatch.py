"""Task-set and population RTA: one stacked fixed point per population.

Two shapes of one contract -- the screened record kernel of
:mod:`repro.memo.kernels` (``evaluate_candidate``):

* the record kernel itself, one ``(candidate, hp-set)`` subproblem per
  call, hp records in task-set order (the
  :meth:`~repro.rta.taskset.TaskSet.higher_priority` enumeration), so
  every float equals the reference :func:`repro.rta.interface
  .latency_jitter` and the shared memo;
* the stacked kernels (:func:`_stacked_wcrt` / :func:`_stacked_bcrt`)
  -- ragged subproblem lists padded into ``(n_problems, n_hp)``
  ndarrays whose best/worst-case response times iterate
  **simultaneously**, with per-problem convergence masking.  See the
  "Kernel tiers" section of the README.

Bit-identity contract
---------------------
The stacked iterations reproduce the record kernel *bit for bit*:

* the guarded ceiling uses the same relative guard and the same
  round-half-even nearest-integer decision (:func:`guarded_ceil_array`
  == scalar :func:`repro.rta.wcrt.guarded_ceil` decisions);
* the WCRT early exits (empty hp, first iterate past the period,
  saturated hp under a finite period) decide on the same sums in the
  same order;
* interference accumulates **sequentially over hp columns in task-set
  order** -- the padded (non-hp) columns hold ``(period, wcet, bcet,
  quotient) = (1, 0, 0, 0)`` so they contribute an exact ``+0.0``, which
  is a bitwise no-op on a non-negative IEEE-754 accumulator.  The true
  hp entries therefore accumulate with exactly the scalar operand order
  and associativity;
* divergence / error / convergence tests run in the scalar order with
  the scalar tolerances, and each problem's result is frozen on the
  iterate where the scalar loop would have returned it.

Problems that the stack cannot settle quickly (stragglers past
:data:`_STRAGGLER_ITERATIONS` rounds) or that hit an error condition are
recomputed from scratch through the record kernel, in input order -- so
pathological populations converge, and :class:`~repro.errors
.ScheduleError` carries the exact scalar message for the *first* failing
problem, exactly as a serial loop would raise it.

Entry points:

* :func:`evaluate_problems` -- many ``(candidate, hp-set)`` subproblems
  at once, bit-identical to ``[evaluate_candidate(r, hp) ...]`` (what
  the memo, the detectors and the search strategies consume).  It gates
  on input size: lists too small to pay for the ndarray set-up run the
  record kernel directly.
* :func:`analyze_population` -- many task sets at once: every task of
  every set posed as one subproblem of a single
  :func:`evaluate_problems` call (the memo's population routine without
  the memo); :func:`analyze_taskset` is its one-set case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.memo.kernels import (
    TaskRecord,
    candidate_entry,
    evaluate_candidate,
    make_record,
)
from repro.rta.interface import TasksetAnalysis
from repro.rta.taskset import Task, TaskSet
from repro.rta.wcrt import _CEIL_RTOL
from repro.tiers import observe_tier as _observe_tier

#: Candidate-problem populations with fewer *distinct* problems than
#: this run the record kernel: below ~32 problems the ndarray setup
#: costs more than the stack saves (measured crossover against the
#: unrolled scalar kernels, which moved it up from 16).
MIN_PROBLEM_POPULATION = 32

#: Problem lists shorter than this skip the dedup pre-pass entirely:
#: repeats only appear in the detector-sized lists (dozens of problems),
#: and the id-tuple keys are pure overhead for the memo's small
#: per-level batches.
_DEDUP_MIN_PROBLEMS = 12

#: Stacked rounds before remaining active problems fall back to the
#: record kernel.  Well-conditioned RTA fixed points settle in a few
#: dozen iterations; a straggler forces full-width array work on every
#: round, so past this point per-problem scalar loops are cheaper (and
#: reproduce the scalar 10k-iteration/error behaviour by construction).
_STRAGGLER_ITERATIONS = 128

#: Convergence tolerance shared with the scalar fixed points.
_FP_RTOL = 1e-12

_INF = float("inf")


def guarded_ceil_array(quotients: np.ndarray) -> np.ndarray:
    """Vectorised :func:`repro.rta.wcrt.guarded_ceil`.

    Values within ``1e-9`` (relative) of a non-zero integer round to
    that integer; everything else is ceiled.  Matches the scalar guard
    decision exactly.
    """
    quotients = np.asarray(quotients, dtype=float)
    nearest = np.round(quotients)
    guard = np.abs(quotients - nearest) <= _CEIL_RTOL * np.maximum(
        1.0, np.abs(quotients)
    )
    return np.where(guard & (nearest != 0.0), nearest, np.ceil(quotients))


@dataclass
class _ProblemStack:
    """Padded population of ``(candidate, hp-set)`` fixed-point problems.

    Row ``p`` holds one candidate; the ``H`` hp columns are in task-set
    order with non-hp slots padded to ``(period, wcet, bcet, quot) =
    (1, 0, 0, 0)`` -- exact-zero contributions in every accumulation.
    """

    period: np.ndarray  # (P,)
    wcet: np.ndarray  # (P,)
    bcet: np.ndarray  # (P,)
    hp_period: np.ndarray  # (P, H)
    hp_wcet: np.ndarray  # (P, H)
    hp_bcet: np.ndarray  # (P, H)
    hp_quot: np.ndarray  # (P, H) precomputed bcet/period records
    hp_count: np.ndarray  # (P,) true hp entries per row

    @property
    def n_problems(self) -> int:
        return self.period.shape[0]


def _column_sums(matrix: np.ndarray) -> np.ndarray:
    """Sequential left-to-right column accumulation (scalar add order)."""
    total = np.zeros(matrix.shape[0])
    for j in range(matrix.shape[1]):
        total = total + matrix[:, j]
    return total


def _stacked_wcrt(stack: _ProblemStack) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked least fixed point of eq. (3) with ``limit = period``.

    Returns ``(worst, fallback)``: per-problem response times (``inf``
    where the iterate exceeds the period) and a mask of problems the
    caller must recompute through the record kernel (stragglers).  The
    early exits are those of :func:`repro.memo.kernels._wcrt_exact`.
    """
    period, wcet = stack.period, stack.wcet
    hp_period, hp_wcet = stack.hp_period, stack.hp_wcet
    n = stack.n_problems
    result = np.zeros(n)
    fallback = np.zeros(n, dtype=bool)

    no_hp = stack.hp_count == 0
    result[no_hp] = wcet[no_hp]
    active = ~no_hp
    hp_wcet_sum = _column_sums(hp_wcet)
    # Pad columns divide 0/1 = +0.0: exact no-op terms, like the sums.
    hp_util = _column_sums(hp_wcet / hp_period)
    screened = active & (
        (wcet + hp_wcet_sum > period)
        | ((hp_util + 1e-12 >= 1.0) & (period != _INF))
    )
    result[screened] = _INF
    active &= ~screened
    if not active.any():
        return result, fallback

    # Frozen rows keep a harmless finite response so the full-width
    # arithmetic never produces inf/nan that could leak via masks.
    response = np.where(active, wcet, 1.0)
    for _ in range(_STRAGGLER_ITERATIONS):
        ceils = guarded_ceil_array(response[:, None] / hp_period)
        interference = _column_sums(ceils * hp_wcet)
        updated = wcet + interference
        diverged = active & (updated > period)
        result[diverged] = _INF
        converged = (
            active
            & ~diverged
            & (
                np.abs(updated - response)
                <= _FP_RTOL * np.maximum(1.0, updated)
            )
        )
        result[converged] = updated[converged]
        active &= ~diverged & ~converged
        if not active.any():
            return result, fallback
        response = np.where(active, updated, 1.0)
    fallback[active] = True
    return result, fallback


def _stacked_bcrt(stack: _ProblemStack) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked greatest fixed point of eq. (4), seeded from the
    utilisation bound.

    Returns ``(best, fallback)``; error conditions (an iterate that
    *increases*, which the record kernel reports as a
    :class:`~repro.errors.ScheduleError`) are routed to the scalar
    fallback so the exception text matches exactly.
    """
    bcet = stack.bcet
    hp_period, hp_bcet = stack.hp_period, stack.hp_bcet
    n = stack.n_problems
    result = np.zeros(n)
    fallback = np.zeros(n, dtype=bool)

    bcet_util = _column_sums(stack.hp_quot)
    saturated = bcet_util + 1e-12 >= 1.0
    result[saturated] = _INF
    active = ~saturated
    if not active.any():
        return result, fallback

    denominator = np.where(active, 1.0 - bcet_util, 1.0)
    response = np.where(active, bcet / denominator + 1e-9, 1.0)
    for _ in range(_STRAGGLER_ITERATIONS):
        ceils = guarded_ceil_array(response[:, None] / hp_period)
        interference = _column_sums(
            np.maximum(ceils - 1.0, 0.0) * hp_bcet
        )
        updated = bcet + interference
        errored = active & (
            updated > response + _FP_RTOL * np.maximum(1.0, response)
        )
        fallback |= errored
        converged = (
            active
            & ~errored
            & (
                np.abs(updated - response)
                <= _FP_RTOL * np.maximum(1.0, updated)
            )
        )
        result[converged] = updated[converged]
        active &= ~errored & ~converged
        if not active.any():
            return result, fallback
        response = np.where(active, updated, 1.0)
    fallback[active] = True
    return result, fallback


# ----------------------------------------------------------------------
# Candidate-problem populations
# ----------------------------------------------------------------------

#: One subproblem: an interned candidate record against its hp records,
#: enumerated in the caller's (task-set) order.
Problem = Tuple[TaskRecord, Sequence[TaskRecord]]


def _stack_problems(problems: Sequence[Problem]) -> _ProblemStack:
    n = len(problems)
    candidates = np.array([record[:3] for record, _ in problems], dtype=float)
    hp_count = np.fromiter(
        (len(hp) for _, hp in problems), dtype=np.intp, count=n
    )
    h = max(int(hp_count.max(initial=0)), 1)  # keep (P, H) two-dimensional
    hp_period = np.ones((n, h))
    hp_wcet = np.zeros((n, h))
    hp_bcet = np.zeros((n, h))
    hp_quot = np.zeros((n, h))
    flat = [other[:4] for _, hp in problems for other in hp]
    if flat:
        # Scatter the ragged hp rows into the padded stack in one fancy
        # assignment per column; pad cells keep their neutral defaults.
        values = np.array(flat, dtype=float)
        rows = np.repeat(np.arange(n), hp_count)
        offsets = np.cumsum(hp_count) - hp_count
        cols = np.arange(len(flat)) - np.repeat(offsets, hp_count)
        hp_period[rows, cols] = values[:, 0]
        hp_wcet[rows, cols] = values[:, 1]
        hp_bcet[rows, cols] = values[:, 2]
        hp_quot[rows, cols] = values[:, 3]
    return _ProblemStack(
        period=candidates[:, 0],
        wcet=candidates[:, 1],
        bcet=candidates[:, 2],
        hp_period=hp_period,
        hp_wcet=hp_wcet,
        hp_bcet=hp_bcet,
        hp_quot=hp_quot,
        hp_count=hp_count,
    )


def evaluate_problems(
    problems: Sequence[Problem],
) -> List[Tuple[float, float, float]]:
    """Evaluate many ``(candidate, hp-set)`` subproblems at once.

    Bit-identical to ``[evaluate_candidate(r, hp) for r, hp in
    problems]`` -- the record-kernel contract the anomaly detectors'
    and search strategies' pinned goldens rely on.  Problems of
    different hp sizes share one stack: the pad columns contribute
    exact ``+0.0``.
    """
    problems = list(problems)
    if not problems:
        return []
    if len(problems) < _DEDUP_MIN_PROBLEMS:
        # Small batches (the memo's per-level candidate lists) almost
        # never repeat a subproblem, so the dedup bookkeeping below
        # would cost more than it saves.
        _observe_tier("scalar", len(problems), len(problems))
        return [evaluate_candidate(record, hp) for record, hp in problems]

    # Dedupe repeated subproblems first: the anomaly detectors re-pose
    # each task's unchanged "before" problem once per interferer and
    # once per family, so the unique set is often 2-3x smaller.  Keys
    # are object identities of the (record, hp-container) pair --
    # records and the repeated hp lists are interned per caller
    # (:func:`repro.anomalies.detectors._before_hp_map`), so repeats
    # share the exact objects, and distinct-content problems can never
    # collide; content-equal problems in distinct containers merely
    # evaluate twice, which is correct either way.  Equal problems have
    # equal entries, and both tiers below walk the *input* order while
    # evaluating each unique problem once, so the first
    # :class:`~repro.errors.ScheduleError` raises on the same problem as
    # the strictly serial loop (a failing problem always fails at its
    # first occurrence, and everything before it succeeded).
    unique_of: dict = {}
    uniques: List[Problem] = []
    positions = []
    for problem in problems:
        key = (id(problem[0]), id(problem[1]))
        u = unique_of.get(key)
        if u is None:
            u = len(uniques)
            unique_of[key] = u
            uniques.append(problem)
        positions.append(u)

    entries: List[Optional[Tuple[float, float, float]]] = [None] * len(problems)
    unique_entries: List[Optional[Tuple[float, float, float]]] = [
        None
    ] * len(uniques)
    if len(uniques) < MIN_PROBLEM_POPULATION:
        _observe_tier("scalar", len(problems), len(problems))
        for p, u in enumerate(positions):
            entry = unique_entries[u]
            if entry is None:
                record, hp = uniques[u]
                entry = unique_entries[u] = evaluate_candidate(record, hp)
            entries[p] = entry
        return entries  # type: ignore[return-value]

    stack = _stack_problems(uniques)
    worst, fb_w = _stacked_wcrt(stack)
    best, fb_b = _stacked_bcrt(stack)
    needs_scalar = fb_w | fb_b
    _observe_tier("popbatch", len(problems), len(problems))
    for p, u in enumerate(positions):
        entry = unique_entries[u]
        if entry is None:
            record, hp = uniques[u]
            if needs_scalar[u]:
                entry = evaluate_candidate(record, hp)
            else:
                entry = candidate_entry(record, float(best[u]), float(worst[u]))
            unique_entries[u] = entry
        entries[p] = entry
    return entries  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Task-set populations
# ----------------------------------------------------------------------

def analyze_population(tasksets: Sequence[TaskSet]) -> List[TasksetAnalysis]:
    """Exact latency/jitter interfaces and verdicts of many task sets.

    Requires distinct priorities within each set.  Every task of every
    set becomes one record-kernel subproblem against its hp records in
    task-set order, and the whole population is evaluated by one
    :func:`evaluate_problems` call, so the floats are those of the memo
    and of the reference per-task analyses (the equivalence suites in
    ``tests/rta/test_popbatch.py`` and ``tests/rta/test_batch.py`` pin
    this); verdicts match
    :func:`repro.assignment.validate.validate_assignment`.
    """
    task_lists: List[List[Task]] = []
    problems: List[Problem] = []
    for taskset in tasksets:
        taskset.check_distinct_priorities()
        tasks = list(taskset)
        records = [
            make_record(t.period, t.wcet, t.bcet, t.stability, t.name)
            for t in tasks
        ]
        priorities = [t.priority for t in tasks]
        problems.extend(
            (record, [records[j] for j, other in enumerate(priorities) if other > mine])
            for record, mine in zip(records, priorities)
        )
        task_lists.append(tasks)
    entries = evaluate_problems(problems)
    results: List[TasksetAnalysis] = []
    offset = 0
    for tasks in task_lists:
        results.append(
            TasksetAnalysis.build(tasks, entries[offset : offset + len(tasks)])
        )
        offset += len(tasks)
    return results


def analyze_taskset(taskset: TaskSet) -> TasksetAnalysis:
    """:func:`analyze_population` of one task set."""
    (analysis,) = analyze_population([taskset])
    return analysis
