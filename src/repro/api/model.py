"""The façade's system model: tasks + plant bindings + priority policy.

A :class:`ControlTaskSystem` is the single input object of the analysis
pipeline.  It wraps a :class:`~repro.rta.taskset.TaskSet` (whose tasks may
carry plant bindings and linear stability bounds) together with the name
of the priority policy that completes the design.  Resolution -- deriving
missing stability bounds from the bound plants' LQG designs and applying
the priority policy -- is lazy and memoised, so repeated ``analyze()``
calls on one system pay the control-theoretic work once.

Systems round-trip through a versioned JSON schema (the input side of the
report schema of :mod:`repro.api.report`), which is what the CLI's
``python -m repro analyze <taskset.json>`` consumes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from math import isfinite
from typing import Any, Callable, Dict, Optional, Union

from repro.assignment.audsley import assign_audsley
from repro.assignment.backtracking import assign_backtracking
from repro.assignment.exhaustive import assign_exhaustive
from repro.assignment.heuristics import (
    assign_rate_monotonic,
    assign_slack_monotonic,
)
from repro.assignment.unsafe_quadratic import assign_unsafe_quadratic
from repro.errors import ModelError, ScheduleError
from repro.jittermargin.linearbound import LinearStabilityBound
from repro.rta.taskset import Task, TaskSet

from repro.api.report import SCHEMA_VERSION
from repro.api.wire import model_json

#: Priority-assignment policies selectable by name.  ``as_given`` keeps
#: the model's priorities (and rejects systems without a complete,
#: distinct assignment); every other entry maps to a search strategy of
#: :mod:`repro.search` through its :mod:`repro.assignment` entry point
#: (``exhaustive`` is capped at 9 tasks and raises beyond).
PRIORITY_POLICIES: Dict[str, Optional[Callable]] = {
    "as_given": None,
    "rate_monotonic": assign_rate_monotonic,
    "slack_monotonic": assign_slack_monotonic,
    "audsley": assign_audsley,
    "backtracking": assign_backtracking,
    "unsafe_quadratic": assign_unsafe_quadratic,
    "exhaustive": assign_exhaustive,
}

#: Cache attribute names (kept out of pickles so that a memoised system
#: fingerprints identically to a fresh one -- sweep cache/resume relies
#: on that).
_CACHE_ATTRS = ("_cache_resolved", "_cache_report")


@dataclass(frozen=True)
class ControlTaskSystem:
    """One system model entering :func:`repro.api.analyze`.

    Attributes
    ----------
    taskset:
        The control task set.  Tasks may omit ``stability`` when they
        carry a ``plant_name``: resolution derives the bound from the
        plant's LQG design at the task's period (through the cached
        jitter-margin analysis and its batched frequency-response
        kernel).
    name:
        System identifier, echoed into the report.
    priority_policy:
        Key into :data:`PRIORITY_POLICIES`.
    """

    taskset: TaskSet
    name: str = "system"
    priority_policy: str = "as_given"

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("system needs a non-empty name")
        if self.priority_policy not in PRIORITY_POLICIES:
            raise ModelError(
                f"unknown priority policy {self.priority_policy!r}; "
                f"known: {sorted(PRIORITY_POLICIES)}"
            )

    # -- memoised resolution -------------------------------------------------
    def bound_taskset(self) -> TaskSet:
        """The task set with stability bounds derived, priorities untouched.

        The input every priority-assignment search needs: plant-bound
        tasks get their linear bounds, but the priority policy is *not*
        applied (that is the searcher's job).  Cheap when no task needs
        derivation; not memoised separately (the derived-bounds pass is
        itself cached at the jitter-margin layer).
        """
        return _with_derived_bounds(self.taskset)

    def assign(
        self,
        algorithm: Optional[str] = None,
        *,
        memo: Optional[object] = None,
        **options,
    ):
        """Search + validate a priority assignment for this system.

        Convenience front end of :func:`repro.api.assign`; see there for
        the ``algorithm``/``memo``/``options`` semantics.  Returns an
        :class:`~repro.api.service.AssignmentOutcome`.
        """
        from repro.api.service import assign as _assign

        return _assign(
            self, algorithm=algorithm, memo=memo, **options
        )

    def resolved_taskset(self) -> TaskSet:
        """The analysable task set: bounds derived, priorities assigned.

        Memoised on the instance; raises :class:`ScheduleError` when the
        priority policy fails to produce a complete assignment and
        :class:`ModelError` when the priorities are not distinct (or one
        is NaN).  The façade's memoised analysis relies on that check and
        does not repeat it.
        """
        cached = self.__dict__.get("_cache_resolved")
        if cached is not None:
            return cached
        taskset = self.bound_taskset()
        assigner = PRIORITY_POLICIES[self.priority_policy]
        if assigner is not None:
            result = assigner(taskset)
            if result.priorities is None:
                raise ScheduleError(
                    f"system {self.name!r}: policy "
                    f"{self.priority_policy!r} found no priority assignment"
                )
            taskset = result.apply_to(taskset)
        taskset.check_distinct_priorities()
        object.__setattr__(self, "_cache_resolved", taskset)
        return taskset

    def __getstate__(self) -> Dict[str, Any]:
        return {
            k: v for k, v in self.__dict__.items() if k not in _CACHE_ATTRS
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)

    # -- schema round trip ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Versioned model schema (the input side of the report schema)."""
        tasks = []
        for task in self.taskset:
            entry: Dict[str, Any] = {
                "name": task.name,
                "period": task.period,
                "wcet": task.wcet,
                "bcet": task.bcet,
            }
            if task.priority is not None:
                entry["priority"] = task.priority
            if task.plant_name is not None:
                entry["plant"] = task.plant_name
            if task.stability is not None:
                entry["stability"] = {
                    "a": task.stability.a,
                    "b": task.stability.b,
                }
            tasks.append(entry)
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "priority_policy": self.priority_policy,
            "tasks": tasks,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ControlTaskSystem":
        """Build a system from the model schema.

        ``schema_version`` is optional on input (hand-written files), but
        when present it must match.  Task entries accept ``stability``
        (explicit ``{a, b}``), ``plant`` (bound derived at resolution
        time), or neither (plain real-time task).
        """
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ModelError(
                f"unsupported system schema_version {version!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        tasks_field = data.get("tasks")
        if not isinstance(tasks_field, (list, tuple)) or not tasks_field:
            raise ModelError("system schema needs a non-empty 'tasks' list")
        tasks = [
            _task_from_entry(index, entry)
            for index, entry in enumerate(tasks_field)
        ]
        return cls(
            taskset=TaskSet(tasks),
            name=str(data.get("name", "system")),
            priority_policy=str(data.get("priority_policy", "as_given")),
        )

    def canonical_json(self) -> str:
        """Deterministic JSON of the model (sorted keys, compact, sentinels).

        The input-side counterpart of the report's canonical form: two
        structurally identical systems -- whatever dict ordering or float
        spelling their source files used -- produce identical strings.
        Written from the tasks in one pass (:func:`repro.api.wire
        .model_json`), equal to ``canonical_dumps(self.to_dict())``.
        """
        return model_json(self)

    def canonical_sha256(self) -> str:
        """Content address of the model: the serve-layer cache key.

        Covers exactly what :func:`analyze` consumes (tasks, bindings,
        priority policy, name), so equal hashes guarantee byte-identical
        analysis responses.
        """
        return hashlib.sha256(model_json(self).encode("utf-8")).hexdigest()

    @classmethod
    def from_json(cls, path: str) -> "ControlTaskSystem":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


#: What a failed ``float()``/``int()`` of a schema field raises.
_UNCONVERTIBLE = (TypeError, ValueError, OverflowError)


def _task_from_entry(index: int, entry: Any) -> Task:
    """One task entry of the model schema, each field converted once.

    An error names the first bad field in the boundary's order: the
    entry's shape, then booleans (:func:`_boolean_error`), then
    non-finite numbers (:func:`_nonfinite_error`), then fields that do
    not convert (period, wcet, bcet, priority, a, b), then the bound's
    and the task's own checks.
    """
    if not isinstance(entry, dict):
        raise ModelError(
            f"task entry {index} must be an object, got {type(entry).__name__}"
        )
    if not ("name" in entry and "period" in entry and "wcet" in entry):
        missing = [key for key in ("name", "period", "wcet") if key not in entry]
        raise ModelError(
            f"task entry {index} is missing required field(s) "
            f"{missing}; each task needs at least name/period/wcet"
        )
    stability = entry.get("stability")
    if stability is not None and not (
        isinstance(stability, dict) and "a" in stability and "b" in stability
    ):
        raise ModelError(
            f"task entry {index}: 'stability' must be an object "
            "with fields 'a' and 'b'"
        )
    period = entry["period"]
    wcet = entry["wcet"]
    bcet = entry.get("bcet")
    priority = entry.get("priority")
    plant = entry.get("plant")
    a = b = None
    if stability is not None:
        a = stability["a"]
        b = stability["b"]
    # ``float(True)`` is 1.0: a JSON ``true`` must not become a number.
    if (
        type(period) is bool
        or type(wcet) is bool
        or type(bcet) is bool
        or type(priority) is bool
        or type(a) is bool
        or type(b) is bool
    ):
        raise _boolean_error(index, entry, stability)
    try:
        period = float(period)
        wcet = float(wcet)
        if bcet is not None:
            bcet = float(bcet)
        if priority is not None:
            priority = int(priority)
        if stability is not None:
            a = float(a)
            b = float(b)
    except _UNCONVERTIBLE as exc:
        # A non-finite field elsewhere in the entry is reported first.
        raise _nonfinite_error(index, entry, stability) or ModelError(
            f"task entry {index} has a malformed field: {exc}"
        ) from exc
    if not (
        isfinite(period)
        and isfinite(wcet)
        and (bcet is None or isfinite(bcet))
        and (stability is None or (isfinite(a) and isfinite(b)))
    ):
        raise _nonfinite_error(index, entry, stability)
    try:
        # Positional, in field order: a third cheaper than keywords, and
        # paid once per task of every served model.
        return Task(
            str(entry["name"]),
            period,
            wcet,
            bcet,
            priority,
            None if stability is None else LinearStabilityBound(a, b),
            None if plant is None else str(plant),
        )
    except _UNCONVERTIBLE as exc:
        raise ModelError(
            f"task entry {index} has a malformed field: {exc}"
        ) from exc


def _boolean_error(
    index: int, entry: Dict[str, Any], stability: Optional[Dict[str, Any]]
) -> ModelError:
    """The error for an entry's first boolean number field.

    Checked in the order ``period``, ``wcet``, ``bcet``, ``priority``,
    ``a``, ``b``; the caller has seen at least one.
    """
    fields = [
        (name, entry.get(name)) for name in ("period", "wcet", "bcet", "priority")
    ]
    if stability is not None:
        fields += [
            (f"stability coefficient {coeff!r}", stability[coeff])
            for coeff in ("a", "b")
        ]
    label, raw = next(field for field in fields if type(field[1]) is bool)
    return ModelError(f"task entry {index}: {label} must be a number, got {raw!r}")


def _nonfinite_error(
    index: int, entry: Dict[str, Any], stability: Optional[Dict[str, Any]]
) -> Optional[ModelError]:
    """The error for an entry's first non-finite number, if it has one.

    Checked in the order ``a``, ``b``, ``period``, ``wcet``, ``bcet``,
    over the fields that convert at all.  Task's own checks are
    comparison-based and NaN bypasses comparisons, so non-finite numbers
    from a JSON file (which ``json.loads`` accepts as bare
    NaN/Infinity) are rejected here at the schema boundary -- they would
    otherwise surface as opaque kernel errors (or a vacuous verdict)
    much later.
    """
    fields = [] if stability is None else [
        (f"stability coefficient {coeff!r}", stability[coeff])
        for coeff in ("a", "b")
    ]
    fields += [(name, entry.get(name)) for name in ("period", "wcet", "bcet")]
    for label, raw in fields:
        try:
            value = float(raw)
        except _UNCONVERTIBLE:
            continue
        if not isfinite(value):
            return ModelError(
                f"task entry {index}: {label} must be finite, got {raw!r}"
            )
    return None


def as_system(
    system: Union["ControlTaskSystem", TaskSet],
    *,
    name: str = "system",
) -> "ControlTaskSystem":
    """Coerce a bare :class:`TaskSet` into a system (priorities as given)."""
    if isinstance(system, ControlTaskSystem):
        return system
    if isinstance(system, TaskSet):
        return ControlTaskSystem(taskset=system, name=name)
    raise ModelError(
        f"expected a ControlTaskSystem or TaskSet, got {type(system).__name__}"
    )


def _with_derived_bounds(taskset: TaskSet) -> TaskSet:
    """Derive missing stability bounds from the tasks' plant bindings."""
    if all(
        task.stability is not None or task.plant_name is None
        for task in taskset
    ):
        return taskset
    from repro.control.plants import get_plant
    from repro.jittermargin.linearbound import stability_bound_for_plant

    tasks = []
    for task in taskset:
        if task.stability is None and task.plant_name is not None:
            bound = stability_bound_for_plant(
                get_plant(task.plant_name), task.period
            )
            task = replace(task, stability=bound)
        else:
            task = task.copy()
        tasks.append(task)
    return TaskSet(tasks)
