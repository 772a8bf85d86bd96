"""Task-set and population RTA: one stacked fixed point per population.

Two shapes of one contract -- the screened record kernel of
:mod:`repro.memo.kernels` (``evaluate_candidate``):

* the record kernel itself, one ``(candidate, hp-set)`` subproblem per
  call, hp records in task-set order (the
  :meth:`~repro.rta.taskset.TaskSet.higher_priority` enumeration), so
  every float equals the reference :func:`repro.rta.interface
  .latency_jitter` and the shared memo;
* the stacked kernels (:func:`_stacked_wcrt` / :func:`_stacked_bcrt`)
  -- subproblems padded into ``(n_problems, n_hp)`` ndarrays whose
  best/worst-case response times iterate **simultaneously**, with
  per-problem convergence masking.  Two builders feed them: ragged
  problem lists (:func:`_stack_problems`) and task-set populations
  built from per-set arrays (:class:`PopulationArrays`).  See the
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
  order** -- the non-hp cells hold ``(period, wcet, bcet, quotient) =
  (1, 0, 0, 0)`` so they contribute an exact ``+0.0`` wherever they
  sit, a bitwise no-op on a non-negative IEEE-754 accumulator.  The
  true hp entries therefore accumulate with exactly the scalar operand
  order and associativity, whether the pads trail (list-built rows) or
  sit between them (array-built rows, masked in place);
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
  the memo and the search strategies consume).
* :func:`analyze_population` -- many task sets at once: every task of
  every set is one row of a :class:`PopulationArrays` stack (the memo's
  population routine without the memo); :func:`analyze_taskset` is its
  one-set case.  :mod:`repro.anomalies.detectors` adds its perturbed
  rows to the same stack shape.

Both gate on size: stacks of fewer than :data:`MIN_PROBLEM_POPULATION`
rows run the record kernel directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

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

#: Stacks of fewer rows than this run the record kernel instead: below
#: it the ndarray setup costs more than the stack saves.  Measured
#: against the unrolled scalar kernels, both stack builders cross over
#: between ~24 rows (12-task sets) and ~64 rows (4-task sets).
MIN_PROBLEM_POPULATION = 32

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
    problems]`` -- the record-kernel contract the search strategies'
    pinned goldens rely on.  Problems of different hp sizes share one
    stack: the pad columns contribute exact ``+0.0``.  The stack's
    stragglers and error rows run the record kernel in input order, so
    the first :class:`~repro.errors.ScheduleError` raises on the same
    problem as the serial loop.
    """
    problems = list(problems)
    if len(problems) < MIN_PROBLEM_POPULATION:
        if problems:
            _observe_tier("scalar", len(problems), len(problems))
        return [evaluate_candidate(record, hp) for record, hp in problems]

    stack = _stack_problems(problems)
    worst, fb_w = _stacked_wcrt(stack)
    best, fb_b = _stacked_bcrt(stack)
    needs_scalar = (fb_w | fb_b).tolist()
    _observe_tier("popbatch", len(problems), len(problems))
    return [
        evaluate_candidate(record, hp)
        if scalar
        else candidate_entry(record, b, w)
        for (record, hp), scalar, b, w in zip(
            problems, needs_scalar, best.tolist(), worst.tolist()
        )
    ]


# ----------------------------------------------------------------------
# Task-set populations
# ----------------------------------------------------------------------

class PopulationArrays:
    """A population of task sets as per-set arrays: the array-built stack.

    Set ``s`` occupies row ``s`` of the ``(S, H)`` field arrays, its tasks
    in task-set order from column 0 (``H`` is the largest set); the slots
    past a set's last task hold the pad ``(period, wcet, bcet, quot) =
    (1, 0, 0, 0)`` and rank ``-1``.  ``quot`` is ``bcet / period`` as
    :func:`~repro.memo.kernels.make_record` computes it, and ``rank``
    each task's priority rank within its set (0 = lowest), so ``rank[s,
    j] > rank[s, i]`` exactly when task ``j`` is in ``hp(i)`` -- the
    :meth:`~repro.rta.taskset.TaskSet.higher_priority` test, for sets
    with distinct priorities.

    A population *row* poses one task (an index into :attr:`tasks`, the
    flat population order) against an hp mask over its own set's
    columns (:meth:`hp_mask`) and hp cells (:meth:`cells`, which a
    caller may perturb).  :meth:`solve` pads every non-hp cell in place:
    a pad adds an exact ``+0.0`` wherever it sits in the sequential
    column sums, so the hp cells accumulate in task-set order exactly as
    the record kernel sums its hp list.  :func:`analyze_population`
    poses each task once; the anomaly detectors add perturbed rows.
    """

    def __init__(self, tasksets: Sequence[TaskSet]):
        self.task_lists = [list(taskset) for taskset in tasksets]
        self.tasks: List[Task] = [
            task for tasks in self.task_lists for task in tasks
        ]
        n_sets = len(self.task_lists)
        width = max(map(len, self.task_lists), default=0)
        # ``(set, slot, rank)`` of every task, in population order.
        index: List[Tuple[int, int, int]] = []
        for s, tasks in enumerate(self.task_lists):
            priorities = [task.priority for task in tasks]
            rank = [0] * len(tasks)
            for position, slot in enumerate(
                sorted(range(len(tasks)), key=priorities.__getitem__)
            ):
                rank[slot] = position
            index += zip([s] * len(tasks), range(len(tasks)), rank)
        self.task_set, self.task_slot, ranks = (
            np.array(index, dtype=np.intp).reshape(-1, 3).T
        )
        #: Population index of each set's first task.
        self.offset = np.searchsorted(self.task_set, np.arange(n_sets))
        flat = self.task_set * width + self.task_slot
        values = np.array(
            [(t.period, t.wcet, t.bcet) for t in self.tasks], dtype=float
        ).reshape(-1, 3).T
        fields = np.zeros((4, n_sets * width))
        fields[0] = 1.0
        fields[:3, flat] = values
        fields[3, flat] = values[2] / values[0]
        self.period, self.wcet, self.bcet, self.quot = fields.reshape(
            4, n_sets, width
        )
        self.rank = np.full(n_sets * width, -1, dtype=np.intp)
        self.rank[flat] = ranks
        self.rank = self.rank.reshape(n_sets, width)

    def hp_mask(self, rows: np.ndarray) -> np.ndarray:
        """``(R, H)`` hp masks of tasks ``rows`` over their own sets."""
        sets = self.task_set[rows]
        own = self.rank[sets, self.task_slot[rows]]
        return self.rank[sets] > own[:, None]

    def cells(self, rows: np.ndarray) -> List[np.ndarray]:
        """``[period, wcet, bcet, quot]`` cells of tasks ``rows``' sets,
        one fresh ``(R, H)`` array each."""
        sets = self.task_set[rows]
        return [self.period[sets], self.wcet[sets], self.bcet[sets], self.quot[sets]]

    def solve(
        self,
        rows: np.ndarray,
        hp: np.ndarray,
        cells: Sequence[np.ndarray],
        order: Sequence[int],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(best, worst)`` of every row that ``order`` names.

        Row ``r`` is task ``rows[r]`` against the cells where ``hp[r]``
        holds; the other cells are overwritten with the pad.  ``order``
        lists the rows the caller reads, in the order a serial loop
        would evaluate them (repeats allowed).  Fewer than
        :data:`MIN_PROBLEM_POPULATION` rows run the record kernel on each
        listed row; more run the stacked fixed points, and their
        stragglers and error rows run the record kernel, walked in
        ``order`` -- so a :class:`~repro.errors.ScheduleError` carries
        the message of the serial loop's first failing problem.  Rows
        ``order`` does not name never run the record kernel.
        """
        n = len(rows)
        if n < MIN_PROBLEM_POPULATION:
            if n:
                _observe_tier("scalar", n, n)
            best = np.full(n, np.nan)
            worst = np.full(n, np.nan)
            picks = range(n)
        else:
            sets, slots = self.task_set[rows], self.task_slot[rows]
            outside = ~hp
            for cell, pad in zip(cells, (1.0, 0.0, 0.0, 0.0)):
                np.copyto(cell, pad, where=outside)
            stack = _ProblemStack(
                self.period[sets, slots],
                self.wcet[sets, slots],
                self.bcet[sets, slots],
                *cells,
                hp_count=np.count_nonzero(hp, axis=1),
            )
            worst, fb_w = _stacked_wcrt(stack)
            best, fb_b = _stacked_bcrt(stack)
            _observe_tier("popbatch", n, n)
            picks = np.flatnonzero(fb_w | fb_b).tolist()
            if not picks:
                return best, worst
            rows, hp = rows[picks], hp[picks]
            cells = [cell[picks] for cell in cells]
        problems = dict(zip(picks, self._row_problems(rows, hp, cells)))
        for row in order:
            problem = problems.pop(row, None)
            if problem is not None:
                best[row], worst[row], _ = evaluate_candidate(*problem)
        return best, worst

    def _row_problems(
        self, rows: np.ndarray, hp: np.ndarray, cells: Sequence[np.ndarray]
    ) -> List[Problem]:
        """The record-kernel problem of each row: its candidate record
        and its hp cells in column order."""
        at, cols = np.nonzero(hp)
        hp_cells = list(zip(*(cell[at, cols].tolist() for cell in cells)))
        ends = np.cumsum(np.count_nonzero(hp, axis=1)).tolist()
        problems = []
        start = 0
        for task, end in zip(rows.tolist(), ends):
            t = self.tasks[task]
            record = make_record(
                float(t.period), float(t.wcet), float(t.bcet), None, t.name
            )
            problems.append((record, hp_cells[start:end]))
            start = end
        return problems


def analyze_population(tasksets: Sequence[TaskSet]) -> List[TasksetAnalysis]:
    """Exact latency/jitter interfaces and verdicts of many task sets.

    Requires distinct priorities within each set.  Every task of every
    set becomes one row of a :class:`PopulationArrays` stack against
    its hp mask, so the floats are those of the memo and of the
    reference per-task analyses (the equivalence suites in
    ``tests/rta/test_popbatch.py`` and ``tests/rta/test_batch.py`` pin
    this); verdicts match :func:`repro.api.analyze`.
    """
    for taskset in tasksets:
        taskset.check_distinct_priorities()
    return _analyze_population(tasksets)


def _analyze_population(tasksets: Sequence[TaskSet]) -> List[TasksetAnalysis]:
    """:func:`analyze_population` of sets whose priorities are already
    checked (:meth:`repro.api.ControlTaskSystem.resolved_taskset` checks
    every set it resolves)."""
    if not tasksets:
        return []
    population = PopulationArrays(tasksets)
    rows = np.arange(len(population.tasks))
    best, worst = population.solve(
        rows, population.hp_mask(rows), population.cells(rows), range(len(rows))
    )
    best_values, worst_values = best.tolist(), worst.tolist()
    results: List[TasksetAnalysis] = []
    offset = 0
    for tasks in population.task_lists:
        end = offset + len(tasks)
        results.append(
            TasksetAnalysis.build(
                tasks, zip(best_values[offset:end], worst_values[offset:end])
            )
        )
        offset = end
    return results


def analyze_taskset(taskset: TaskSet) -> TasksetAnalysis:
    """:func:`analyze_population` of one task set."""
    (analysis,) = analyze_population([taskset])
    return analysis
