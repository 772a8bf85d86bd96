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
* **fragments** -- a :class:`FragmentStore` of encoded verdict
  fragments (:attr:`AnalysisMemo.fragments`), so a served report
  re-encodes only the verdicts it does not share with earlier reports
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
the bound -- and the table of shared hp-set keys, which is cleared when
it outgrows it (interned task records are tiny and are kept unbounded).
All mutating operations and ``stats()`` snapshots are serialised on an
internal lock (the fragment store has its own), so one memo may be
shared between the serve daemon's event loop, its dispatch worker, and
direct facade calls without lost counter updates.
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

_EMPTY: FrozenSet[int] = frozenset()


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


class FragmentStore:
    """A bounded, thread-safe store of encoded fragments: key -> value.

    The serving layer's encoding caches: the memo's verdict fragments
    (:func:`repro.api.wire.report_json`) and the daemon's model task
    fragments (:func:`repro.api.wire.model_json`).  Least-recently-used
    entries are evicted past ``max_entries`` (``None``: unbounded).
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._values: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(
        self, keys: Sequence[Hashable], encode: Callable[[int], Any]
    ) -> List[Any]:
        """The stored value of every key; a miss stores ``encode(index)``.

        One lock round trip per call.  ``encode`` runs under the lock, so
        it must not call back into the store; an exception from it
        propagates and leaves every value stored so far in place.
        """
        values: List[Any] = []
        bounded = self.max_entries is not None
        with self._lock:
            store = self._values
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
            self.hits += hits
            self.misses += len(values) - hits
            if bounded:
                while len(store) > self.max_entries:
                    store.popitem(last=False)
        return values

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._values),
                "hits": self.hits,
                "misses": self.misses,
            }


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
        #: ``(hp key, id) -> hp key | {id}`` (:meth:`_hp_keys`), cleared
        #: whenever it outgrows ``max_entries``.
        self._unions: Dict[Tuple[FrozenSet[int], int], FrozenSet[int]] = {}
        #: Aggregate over every run opened on this memo.
        self.total = EvaluationCounter()
        #: Wall time spent inside the RTA kernels (memo misses only);
        #: two ``perf_counter`` calls per miss, negligible next to the
        #: kernel itself, so the timing is always on.
        self.kernel_seconds = 0.0
        #: Encoded verdict fragments of served reports
        #: (:func:`repro.api.wire.report_json`), LRU-bounded by
        #: ``max_entries`` like the subproblem memo.
        self.fragments = FragmentStore(max_entries)

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
        """Consistent snapshot of interning, memo, and counter totals.

        The ``fragment_*`` counters are the fragment store's own
        snapshot, taken just before.
        """
        fragments = self.fragments.stats()
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
                "fragment_entries": fragments["entries"],
                "fragment_hits": fragments["hits"],
                "fragment_misses": fragments["misses"],
            }

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

        The hp-set keys come from one descending priority order
        (:meth:`_hp_keys`).  Only a memo miss builds its hp id *list*
        (:meth:`_entries`).
        """
        for taskset in tasksets:
            # Distinct and not NaN: the priority sort orders tasks
            # exactly as ``>`` does.
            taskset.check_distinct_priorities()
        return self._population_analysis(tasksets, counter)

    def _population_analysis(
        self,
        tasksets: Sequence[TaskSet],
        counter: Optional[EvaluationCounter] = None,
    ) -> List[TasksetAnalysis]:
        """:meth:`population_analysis` of sets whose priorities are
        already checked (:meth:`repro.api.ControlTaskSystem
        .resolved_taskset` checks every set it resolves)."""
        if counter is None:
            counter = EvaluationCounter()
        task_lists: List[List[Task]] = []
        tids: List[int] = []
        hp_keys: List[FrozenSet[int]] = []
        # Per input position: ``(ids, priorities, offset)`` of its set.
        owners: List[Tuple[List[int], List[Any], int]] = []
        for taskset in tasksets:
            tasks = list(taskset)
            ids = self.intern_all(tasks)
            priorities = [task.priority for task in tasks]
            order = sorted(
                range(len(tasks)), key=priorities.__getitem__, reverse=True
            )
            keys: List[FrozenSet[int]] = [_EMPTY] * len(tasks)
            for i, key in zip(order, self._hp_keys([ids[i] for i in order])):
                keys[i] = key
            owners.extend([(ids, priorities, len(tids))] * len(tasks))
            tids.extend(ids)
            hp_keys.extend(keys)
            task_lists.append(tasks)

        def hp_ids(index: int) -> List[int]:
            # hp ids in task-set order -- exactly the
            # ``taskset.higher_priority(task)`` enumeration, on which
            # the record kernel's floats depend.
            ids, priorities, offset = owners[index]
            priority = priorities[index - offset]
            return [
                ids[j] for j, other in enumerate(priorities) if other > priority
            ]

        entries = self._entries(tids, hp_keys, hp_ids, counter)
        results: List[TasksetAnalysis] = []
        offset = 0
        for tasks in task_lists:
            results.append(
                TasksetAnalysis.build(tasks, entries[offset : offset + len(tasks)])
            )
            offset += len(tasks)
        return results

    def _hp_keys(self, ids: Sequence[int]) -> List[FrozenSet[int]]:
        """hp-set keys of tasks listed by descending priority.

        ``ids[k]``'s key is ``frozenset(ids[:k])``: its predecessor's key
        plus one id.  Each such union is made once and shared through
        ``_unions``, so a model whose priority order the memo has seen
        gets back the very key objects its memo entries are stored
        under: cached hashes, and equality by identity.  An edited
        model builds new unions only from its first changed task on.
        """
        keys: List[FrozenSet[int]] = []
        key = _EMPTY
        with self._lock:
            unions = self._unions
            if self.max_entries is not None and len(unions) > self.max_entries:
                unions.clear()
            for tid in ids:
                keys.append(key)
                step = (key, tid)
                union = unions.get(step)
                if union is None:
                    union = unions[step] = key | {tid}
                key = union
        return keys

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
        hp_keys: Sequence[FrozenSet[int]],
        hp_ids: Callable[[int], Sequence[int]],
        counter: EvaluationCounter,
    ) -> List[MemoEntry]:
        """Batched :meth:`_entry`: memo misses evaluate as one population.

        Input position ``i`` is the subproblem ``(tids[i], hp_keys[i])``;
        ``hp_ids(i)`` gives its hp ids in evaluation order and is called
        only for the positions that miss (and, after a kernel error, for
        every position of the replay).

        The hit/miss pattern and counter totals are exactly those of
        per-pair :meth:`_entry` calls in input order -- a pair repeated
        in the input counts as a hit and copies its first occurrence's
        value -- while the first-sight misses ride one
        :func:`repro.rta.popbatch.evaluate_problems` pass (pinned
        bit-identical to per-candidate
        :func:`~repro.memo.kernels.evaluate_candidate` calls).
        """
        from repro.rta.popbatch import evaluate_problems

        keys = list(zip(tids, hp_keys))
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
                (records[tids[i]], [records[t] for t in hp_ids(i)])
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
                    self._entry(tid, hp_ids(i), hp_key, counter)
                    for i, (tid, hp_key) in enumerate(keys)
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
        the scalar enumeration's exact hit/miss pattern and counters.
        Level ids are distinct (one task set's interned tasks), so
        ``ids[i]``'s hp key is the level's set without ``ids[i]``, and
        no same-level self-hits exist on either path.
        """
        ids = list(ids)
        level = frozenset(ids)
        entries = self.memo._entries(
            ids,
            [level - {tid} for tid in ids],
            lambda i: ids[:i] + ids[i + 1 :],
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
