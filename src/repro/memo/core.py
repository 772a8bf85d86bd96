"""The shared analysis memo: interned tasks, subproblem cache, counters.

An :class:`AnalysisMemo` is the state every analysis consumer plugs into
(search strategies, the :mod:`repro.api` facade, the serve daemon, the
codesign loop):

* **interning** -- each distinct task *content* ``(name, period, wcet,
  bcet, bound)`` gets a small integer id and a precomputed
  :data:`~repro.memo.kernels.TaskRecord`; hp-sets become frozensets of
  ids, cheap to build and hash.  Content (not object identity) keys the
  memo, so an edited model -- one WCET changed out of twelve tasks --
  shares every untouched subproblem with its parent.
* **memo** -- ``(task_id, frozenset(hp_ids)) -> (best, worst, slack)``.
  The first evaluation of a subproblem fixes its value; all callers that
  enumerate hp-sets in task-set order (the facade and every algorithm
  except the exhaustive permutation scan) therefore observe floats
  bit-identical to the scalar seed path.
* **fragments** -- a bounded store of encoded verdict fragments
  (:meth:`AnalysisMemo.fragments`), so a served report re-encodes only
  the verdicts it does not share with earlier reports
  (:func:`repro.api.wire.report_json`).
* **counters** -- each run carries its own :class:`EvaluationCounter`;
  ``count`` is the paper's logical metric (every predicate query ticks,
  memo hit or not), ``hits`` tallies memo hits, and ``recomputations =
  count - hits`` is what was actually paid.  The memo aggregates totals
  across runs for benchmarking and the daemon's ``/stats``.

Memos are deliberately cheap to create: a fresh memo per task set is the
default; passing one memo across several runs (or several task sets, in
codesign and the serve daemon) is what unlocks the sharing.

Process-lifetime use: pass ``max_entries`` to bound the subproblem memo
and the fragment store -- least-recently-used entries are evicted past
the bound (interned task records are tiny and are kept unbounded).  All
mutating operations and ``stats()`` snapshots are serialised on an
internal lock, so one memo may be shared between the serve daemon's
event loop, its dispatch worker, and direct facade calls without lost
counter updates.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ModelError
from repro.memo.kernels import TaskRecord, evaluate_candidate, make_record
from repro.rta.interface import TasksetAnalysis
from repro.rta.taskset import Task, TaskSet

#: Memo value: ``(best, worst, slack)`` of one (task, hp-set) subproblem.
MemoEntry = Tuple[float, float, float]


@dataclass
class EvaluationCounter:
    """The paper's constraint-evaluation metric, memo-aware.

    ``count`` ticks on every logical predicate query -- byte-compatible
    with the seed counters, so complexity tables stay comparable to the
    paper.  ``hits`` additionally counts the queries answered from the
    memo; the difference is the number of exact response-time interfaces
    actually computed.
    """

    count: int = 0
    hits: int = 0

    def tick(self) -> None:
        self.count += 1

    @property
    def recomputations(self) -> int:
        """Predicate evaluations that ran the RTA kernels (memo misses)."""
        return self.count - self.hits


def _task_key(task: Task) -> tuple:
    bound = task.stability
    return (
        task.name,
        task.period,
        task.wcet,
        task.bcet,
        None if bound is None else (bound.a, bound.b),
    )


class AnalysisMemo:
    """Shared subproblem memo + interning across analyses and task sets.

    Thread safe; optionally size-bounded (``max_entries``) with LRU
    eviction for daemon-lifetime use.
    """

    def __init__(self, *, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ModelError(
                f"max_entries must be a positive integer, got {max_entries!r}"
            )
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._ids: Dict[tuple, int] = {}
        self._records: List[TaskRecord] = []
        self._tasks: List[Task] = []
        self.memo: "OrderedDict[Tuple[int, FrozenSet[int]], MemoEntry]" = (
            OrderedDict()
        )
        self.evictions = 0
        #: Aggregate over every run opened on this memo.
        self.total = EvaluationCounter()
        #: Wall time spent inside the RTA kernels (memo misses only);
        #: two ``perf_counter`` calls per miss, negligible next to the
        #: kernel itself, so the timing is always on.
        self.kernel_seconds = 0.0
        #: Encoded verdict fragments of served reports
        #: (:func:`repro.api.wire.report_json`), LRU-bounded by
        #: ``max_entries`` like the subproblem memo.
        self._fragments: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.fragment_hits = 0
        self.fragment_misses = 0

    # -- interning -----------------------------------------------------------
    def intern(self, task: Task) -> int:
        """Id of the task's content (registering it on first sight)."""
        key = _task_key(task)
        with self._lock:
            tid = self._ids.get(key)
            if tid is None:
                tid = len(self._records)
                self._ids[key] = tid
                self._records.append(
                    make_record(
                        task.period, task.wcet, task.bcet, task.stability, task.name
                    )
                )
                self._tasks.append(task)
        return tid

    def intern_all(self, tasks: Sequence[Task]) -> List[int]:
        """Ids of every task's content, registering new ones, one lock.

        Equivalent to ``[self.intern(t) for t in tasks]`` but takes the
        lock once -- the difference between O(n) and O(n^2) lock
        round-trips per task set on the hot serving path.
        """
        keys = [_task_key(task) for task in tasks]
        ids: List[int] = []
        with self._lock:
            for key, task in zip(keys, tasks):
                tid = self._ids.get(key)
                if tid is None:
                    tid = len(self._records)
                    self._ids[key] = tid
                    self._records.append(
                        make_record(
                            task.period,
                            task.wcet,
                            task.bcet,
                            task.stability,
                            task.name,
                        )
                    )
                    self._tasks.append(task)
                ids.append(tid)
        return ids

    def task(self, tid: int) -> Task:
        """The representative task of an interned id."""
        return self._tasks[tid]

    def name(self, tid: int) -> str:
        return self._records[tid][5]

    # -- runs ----------------------------------------------------------------
    def run(self) -> "MemoRun":
        """Open an analysis/strategy run with its own logical counter."""
        return MemoRun(self, EvaluationCounter())

    # -- statistics ----------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Consistent snapshot of interning, memo, and counter totals."""
        with self._lock:
            return {
                "interned_tasks": len(self._records),
                "memo_entries": len(self.memo),
                "max_entries": self.max_entries,
                "evictions": self.evictions,
                "evaluations": self.total.count,
                "cache_hits": self.total.hits,
                "recomputations": self.total.recomputations,
                "kernel_seconds": self.kernel_seconds,
                "fragment_entries": len(self._fragments),
                "fragment_hits": self.fragment_hits,
                "fragment_misses": self.fragment_misses,
            }

    # -- encoded fragments ---------------------------------------------------
    def fragments(
        self, keys: Sequence[Hashable], encode: Callable[[int], Any]
    ) -> List[Any]:
        """The stored value of every key; a miss stores ``encode(index)``.

        The serving layer's verdict fragments, one lock round trip per
        report (as :meth:`intern_all`).  ``encode`` runs under the lock,
        so it must not call back into the memo; an exception from it
        propagates and leaves every fragment stored so far in place.
        """
        values: List[Any] = []
        bounded = self.max_entries is not None
        with self._lock:
            store = self._fragments
            hits = 0
            for index, key in enumerate(keys):
                value = store.get(key)
                if value is None:
                    value = store[key] = encode(index)
                else:
                    hits += 1
                    if bounded:
                        store.move_to_end(key)
                values.append(value)
            self.fragment_hits += hits
            self.fragment_misses += len(values) - hits
            if bounded:
                while len(store) > self.max_entries:
                    store.popitem(last=False)
        return values

    # -- whole-taskset analysis ---------------------------------------------
    def population_analysis(
        self,
        tasksets: Sequence[TaskSet],
        counter: Optional[EvaluationCounter] = None,
    ) -> List[TasksetAnalysis]:
        """Memoised drop-in for :func:`repro.rta.popbatch.analyze_population`
        (and, on a one-set list, for ``analyze_taskset``).

        Each task is evaluated against its hp-set in *task-set order*
        (exactly ``taskset.higher_priority(task)``), so the interfaces
        -- and hence canonical report bytes -- are identical to the
        fresh pass while paying only for subproblems whose ``(task,
        hp-set)`` key is new.  Counters are those of analysing the sets
        one after another: a subproblem repeated across the population
        is a miss on first sight and a hit on every repeat.
        """
        if counter is None:
            counter = EvaluationCounter()
        task_lists: List[List[Task]] = []
        tids: List[int] = []
        hp_lists: List[List[int]] = []
        for taskset in tasksets:
            taskset.check_distinct_priorities()
            tasks = list(taskset)
            ids = self.intern_all(tasks)
            priorities = [task.priority for task in tasks]
            # hp ids in task-set order -- exactly the
            # ``taskset.higher_priority(task)`` enumeration (priorities
            # are distinct), without re-interning per task.
            hp_lists.extend(
                [ids[j] for j, other in enumerate(priorities) if other > priority]
                for priority in priorities
            )
            tids.extend(ids)
            task_lists.append(tasks)
        entries = self._entries(tids, hp_lists, counter)
        results: List[TasksetAnalysis] = []
        offset = 0
        for tasks in task_lists:
            results.append(
                TasksetAnalysis.build(tasks, entries[offset : offset + len(tasks)])
            )
            offset += len(tasks)
        return results

    # -- evaluation core -----------------------------------------------------
    def _entry(
        self,
        tid: int,
        hp_ids: Sequence[int],
        hp_key: FrozenSet[int],
        counter: EvaluationCounter,
    ) -> MemoEntry:
        """One logical predicate query, memo first.

        ``hp_ids`` gives the evaluation *order* on a miss (the caller's
        enumeration order -- what makes the floats match the seed path);
        ``hp_key`` is the content key.  The per-run ``counter`` belongs
        to the calling run (single-threaded by construction); the shared
        totals only mutate under the lock.
        """
        counter.count += 1
        memo_key = (tid, hp_key)
        bounded = self.max_entries is not None
        with self._lock:
            self.total.count += 1
            entry = self.memo.get(memo_key)
            if entry is not None:
                counter.hits += 1
                self.total.hits += 1
                if bounded:
                    self.memo.move_to_end(memo_key)
                return entry
            records = self._records
            record = records[tid]
            hp_records = [records[i] for i in hp_ids]
        # Evaluate outside the lock: the kernels are the expensive part.
        kernel_start = time.perf_counter()
        entry = evaluate_candidate(record, hp_records)
        kernel_elapsed = time.perf_counter() - kernel_start
        with self._lock:
            self.kernel_seconds += kernel_elapsed
            return self._store(memo_key, entry)

    def _store(
        self, memo_key: Tuple[int, FrozenSet[int]], entry: MemoEntry
    ) -> MemoEntry:
        """Put-if-absent, then LRU eviction past the bound; lock held.

        The first evaluation fixes the value, so a racing thread that
        computed concurrently adopts the stored entry (all enumeration
        orders of interest agree anyway).
        """
        stored = self.memo.setdefault(memo_key, entry)
        if stored is entry and self.max_entries is not None:
            while len(self.memo) > self.max_entries:
                self.memo.popitem(last=False)
                self.evictions += 1
        return stored

    def _entries(
        self,
        tids: Sequence[int],
        hp_lists: Sequence[Sequence[int]],
        counter: EvaluationCounter,
    ) -> List[MemoEntry]:
        """Batched :meth:`_entry`: memo misses evaluate as one population.

        The hit/miss pattern and counter totals are exactly those of
        per-pair :meth:`_entry` calls in input order -- a pair repeated
        in the input counts as a hit and copies its first occurrence's
        value -- while the first-sight misses ride one
        :func:`repro.rta.popbatch.evaluate_problems` pass (pinned
        bit-identical to per-candidate
        :func:`~repro.memo.kernels.evaluate_candidate` calls).
        """
        from repro.rta.popbatch import evaluate_problems

        keys = [(tid, frozenset(hp)) for tid, hp in zip(tids, hp_lists)]
        n = len(keys)
        bounded = self.max_entries is not None
        entries: List[Optional[MemoEntry]] = [None] * n
        hits = 0
        misses: List[int] = []
        first_at: Dict[Tuple[int, FrozenSet[int]], int] = {}
        repeats: List[Tuple[int, int]] = []
        with self._lock:
            for i, key in enumerate(keys):
                stored = self.memo.get(key)
                if stored is not None:
                    hits += 1
                    if bounded:
                        self.memo.move_to_end(key)
                    entries[i] = stored
                elif key in first_at:
                    # Sequentially this would hit the entry the earlier
                    # miss had just stored; copy it once it exists.
                    hits += 1
                    repeats.append((i, first_at[key]))
                else:
                    first_at[key] = i
                    misses.append(i)
            records = self._records
            problems = [
                (records[tids[i]], [records[t] for t in hp_lists[i]])
                for i in misses
            ]
        if misses:
            kernel_start = time.perf_counter()
            try:
                computed = evaluate_problems(problems)
            except Exception:
                # A kernel error (non-convergent fixed point): replay the
                # pairs one by one so the exception -- and the counter
                # state it leaves behind -- match the serial path exactly
                # (nothing was stored or ticked yet).
                return [
                    self._entry(tid, hp, key[1], counter)
                    for tid, hp, key in zip(tids, hp_lists, keys)
                ]
            kernel_elapsed = time.perf_counter() - kernel_start
        counter.count += n
        counter.hits += hits
        with self._lock:
            self.total.count += n
            self.total.hits += hits
            if misses:
                self.kernel_seconds += kernel_elapsed
                for i, value in zip(misses, computed):
                    entries[i] = self._store(keys[i], value)
        for i, j in repeats:
            entries[i] = entries[j]
        return entries  # type: ignore[return-value]


@dataclass
class MemoRun:
    """One analysis/strategy run on a memo: own counter, shared memo."""

    memo: AnalysisMemo
    counter: EvaluationCounter = field(default_factory=EvaluationCounter)

    def slack_ids(self, tid: int, hp_ids: Sequence[int]) -> float:
        """Stability slack of one candidate against an explicit hp id list."""
        return self.memo._entry(
            tid, hp_ids, frozenset(hp_ids), self.counter
        )[2]

    def level_slacks(self, ids: Sequence[int]) -> List[float]:
        """Batched sibling scoring: slack of every candidate of one level.

        ``ids[i]`` is scored against ``ids[:i] + ids[i+1:]``.  Memo
        misses of one level evaluate together through the population
        kernel (:meth:`AnalysisMemo._entries`), so a fresh n-task level
        costs one stacked fixed point instead of n scalar ones, with
        the scalar enumeration's exact hit/miss pattern and counters
        (level ids are distinct, so no same-level self-hits exist on
        either path).
        """
        ids = list(ids)
        entries = self.memo._entries(
            ids,
            [ids[:i] + ids[i + 1 :] for i in range(len(ids))],
            self.counter,
        )
        return [entry[2] for entry in entries]

    def times_ids(
        self, tid: int, hp_ids: Sequence[int]
    ) -> Tuple[float, float]:
        """``(best, worst)`` response times of one subproblem (memoised)."""
        entry = self.memo._entry(
            tid, hp_ids, frozenset(hp_ids), self.counter
        )
        return entry[0], entry[1]

    def slack(self, task: Task, higher_priority: Sequence[Task]) -> float:
        """Task-object convenience wrapper over :meth:`slack_ids`."""
        memo = self.memo
        return self.slack_ids(
            memo.intern(task), memo.intern_all(higher_priority)
        )

    def count_external(self) -> None:
        """Tick one non-memoisable candidate evaluation into this run.

        For candidate scans whose predicate is computed outside the
        kernels (e.g. the periodic-server budget search, whose response
        times come from a different supply model): the evaluation enters
        this run's logical counter so complexity accounting stays
        uniform, but nothing is memoised.
        """
        self.counter.count += 1
        with self.memo._lock:
            self.memo.total.count += 1
