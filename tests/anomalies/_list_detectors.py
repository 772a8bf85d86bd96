"""Reference anomaly detectors: the list-built detectors of v5.0.0.

A test-only oracle for :mod:`repro.anomalies.detectors`.  Each family
builds its before/after ``(record, hp-list)`` problems as Python lists in
task-set order, exactly as the detectors shipped through v5.0.0; the
only change is that the problem list is scored one problem at a time by
the record kernel (:func:`repro.memo.kernels.evaluate_candidate`), so the
oracle shares no stacked code with what it checks.  The shipped
detectors must return these events, float for float.  The body below is
kept as it shipped; do not optimise it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.anomalies.detectors import AnomalyEvent
from repro.errors import ModelError
from repro.memo.kernels import _NAME as _R_NAME
from repro.memo.kernels import evaluate_candidate, make_record
from repro.rta.interface import ResponseTimes
from repro.rta.taskset import Task, TaskSet

_PairInfo = Tuple[Task, str]


def evaluate_serially(problems) -> List[Tuple[float, float, float]]:
    """The record kernel over a problem list, one problem at a time."""
    return [evaluate_candidate(record, hp) for record, hp in problems]


def _record(task: Task):
    return make_record(
        task.period, task.wcet, task.bcet, task.stability, task.name
    )


def _before_hp_map(tasks: Sequence[Task], records: dict) -> dict:
    return {
        task.name: [
            records[t.name] for t in tasks if t.priority > task.priority
        ]
        for task in tasks
    }


def _priority_raise_pairs(
    taskset: TaskSet,
    records: Optional[dict] = None,
    before_hp: Optional[dict] = None,
):
    taskset.check_distinct_priorities()
    tasks = list(taskset)
    if records is None:
        records = {t.name: _record(t) for t in tasks}
    if before_hp is None:
        before_hp = _before_hp_map(tasks, records)
    problems = []
    info: List[_PairInfo] = []
    for task in taskset.sorted_by_priority(descending=False)[:-1]:
        above = _task_one_level_above(taskset, task)
        hp_before = before_hp[task.name]
        problems.append((records[task.name], hp_before))
        problems.append(
            (
                records[task.name],
                [r for r in hp_before if r[_R_NAME] != above.name],
            )
        )
        info.append((task, f"swap above {above.name}"))
    return problems, info


def _wcet_decrease_pairs(
    taskset: TaskSet,
    shrink: float,
    records: Optional[dict] = None,
    before_hp: Optional[dict] = None,
):
    if not (0 < shrink < 1):
        raise ModelError(f"shrink factor must be in (0,1), got {shrink}")
    taskset.check_distinct_priorities()
    tasks = list(taskset)
    if records is None:
        records = {t.name: _record(t) for t in tasks}
    if before_hp is None:
        before_hp = _before_hp_map(tasks, records)
    problems = []
    info: List[_PairInfo] = []
    for interferer in tasks:
        scaled = make_record(
            interferer.period,
            interferer.wcet * shrink,
            interferer.bcet * shrink,
            interferer.stability,
            interferer.name,
        )
        for task in tasks:
            if task.priority >= interferer.priority:
                continue
            hp = before_hp[task.name]
            problems.append((records[task.name], hp))
            problems.append(
                (
                    records[task.name],
                    [
                        scaled if r[_R_NAME] == interferer.name else r
                        for r in hp
                    ],
                )
            )
            info.append(
                (task, f"{interferer.name} executed {shrink:g}x faster")
            )
    return problems, info


def _period_increase_pairs(
    taskset: TaskSet,
    stretch: float,
    records: Optional[dict] = None,
    before_hp: Optional[dict] = None,
):
    if stretch <= 1:
        raise ModelError(f"stretch factor must exceed 1, got {stretch}")
    taskset.check_distinct_priorities()
    tasks = list(taskset)
    if records is None:
        records = {t.name: _record(t) for t in tasks}
    if before_hp is None:
        before_hp = _before_hp_map(tasks, records)
    problems = []
    info: List[_PairInfo] = []
    for interferer in tasks:
        if interferer.wcet > interferer.period * stretch:
            continue
        stretched = make_record(
            interferer.period * stretch,
            interferer.wcet,
            interferer.bcet,
            interferer.stability,
            interferer.name,
        )
        for task in tasks:
            if task.priority >= interferer.priority:
                continue
            hp = before_hp[task.name]
            problems.append((records[task.name], hp))
            problems.append(
                (
                    records[task.name],
                    [
                        stretched if r[_R_NAME] == interferer.name else r
                        for r in hp
                    ],
                )
            )
            info.append((task, f"{interferer.name} period x{stretch:g}"))
    return problems, info


def _assemble_events(
    kind: str,
    info: Sequence[_PairInfo],
    entries: Sequence[Tuple[float, float, float]],
) -> List[AnomalyEvent]:
    events: List[AnomalyEvent] = []
    for index, (task, change) in enumerate(info):
        best_b, worst_b, slack_b = entries[2 * index]
        best_a, worst_a, slack_a = entries[2 * index + 1]
        if task.stability is None:
            slack_before = slack_after = None
            worse = (worst_a - best_a) > (worst_b - best_b) + 1e-12
        else:
            slack_before = float(slack_b)
            slack_after = float(slack_a)
            worse = slack_after < slack_before - 1e-12
        if worse:
            events.append(
                AnomalyEvent(
                    kind=kind,
                    task_name=task.name,
                    change=change,
                    before=ResponseTimes(best=best_b, worst=worst_b),
                    after=ResponseTimes(best=best_a, worst=worst_a),
                    slack_before=slack_before,
                    slack_after=slack_after,
                )
            )
    return events


def priority_raise_anomalies(taskset: TaskSet) -> List[AnomalyEvent]:
    problems, info = _priority_raise_pairs(taskset)
    return _assemble_events(
        "priority_raise", info, evaluate_serially(problems)
    )


def wcet_decrease_anomalies(
    taskset: TaskSet, *, shrink: float = 0.9
) -> List[AnomalyEvent]:
    problems, info = _wcet_decrease_pairs(taskset, shrink)
    return _assemble_events(
        "wcet_decrease", info, evaluate_serially(problems)
    )


def period_increase_anomalies(
    taskset: TaskSet, *, stretch: float = 1.1
) -> List[AnomalyEvent]:
    problems, info = _period_increase_pairs(taskset, stretch)
    return _assemble_events(
        "period_increase", info, evaluate_serially(problems)
    )


def all_anomalies(
    taskset: TaskSet, *, shrink: float = 0.9, stretch: float = 1.1
) -> List[AnomalyEvent]:
    tasks = list(taskset)
    records = {t.name: _record(t) for t in tasks}
    before_hp = _before_hp_map(tasks, records)
    raise_p, raise_i = _priority_raise_pairs(taskset, records, before_hp)
    wcet_p, wcet_i = _wcet_decrease_pairs(
        taskset, shrink, records, before_hp
    )
    period_p, period_i = _period_increase_pairs(
        taskset, stretch, records, before_hp
    )
    entries = evaluate_serially(raise_p + wcet_p + period_p)
    split_wcet = len(raise_p)
    split_period = split_wcet + len(wcet_p)
    return (
        _assemble_events("priority_raise", raise_i, entries[:split_wcet])
        + _assemble_events(
            "wcet_decrease", wcet_i, entries[split_wcet:split_period]
        )
        + _assemble_events("period_increase", period_i, entries[split_period:])
    )


def _task_one_level_above(taskset: TaskSet, task: Task) -> Task:
    higher = [
        t
        for t in taskset
        if t.priority is not None and t.priority > task.priority
    ]
    if not higher:
        raise ModelError(f"task {task.name!r} already has the highest priority")
    return min(higher, key=lambda t: t.priority)
