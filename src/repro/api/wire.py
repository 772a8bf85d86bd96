"""Typed canonical encoders of the served schemas: report, outcome, model.

The wire bytes of an :class:`~repro.api.report.AnalysisReport`, an
:class:`~repro.api.service.AssignmentOutcome` and a
:class:`~repro.api.model.ControlTaskSystem` are *defined* by the generic
encoder of :mod:`repro.sweep.result` (``canonical_dumps`` over the
schema dict: sorted keys, compact separators, non-finite floats as
sentinel strings, sentinel-spelled strings escaped).  The encoders here
write the same bytes in one pass over the typed objects, formatting each
field from a key-sorted template:

* finite floats with ``float.__repr__`` (what ``json.dumps`` writes),
  non-finite ones as the ``"NaN"``/``"Infinity"``/``"-Infinity"``
  sentinels;
* strings with ``encode_basestring_ascii(escape_sentinel(s))``;
* a report computes each verdict's derived fields (slack, relative
  slack, deadline and stability verdicts) once, and its rollups from the
  same pass.

A report embeds its own hash: the body is hashed once, then
``"canonical_sha256":"<sha>",`` is spliced in right after the opening
brace, its sorted position among the report's keys.

Any value whose type the typed path does not handle exactly (a numpy
scalar, a non-string name, ...) sends the whole object through the
generic encoder instead, so the bytes -- and the errors -- are the
generic encoder's.  ``canonical_dumps`` stays the oracle
(``tests/api/test_wire_bytes.py``).

Fragment reuse: given an :class:`~repro.memo.AnalysisMemo`,
:func:`report_json` looks each verdict's encoded fragment up in the
memo's bounded fragment store (:attr:`~repro.memo.AnalysisMemo.
fragments`), so an edited model re-encodes only the verdicts that
changed.  A fragment is keyed on the verdict's field values, plus the
sign of every zero among them: verdicts with ``b = 0.0`` and ``b =
-0.0`` compare (and hash) equal but encode differently.
:func:`model_json` does the same per task, given a
:class:`~repro.memo.FragmentStore` (the serve daemon keeps one); its key
also carries each number's exact type, because ``20 == 20.0`` yet the
model writes them apart.
"""

from __future__ import annotations

import hashlib
from json.encoder import encode_basestring_ascii
from math import copysign
from typing import Any, Dict, Optional, Tuple

from repro.api.report import SCHEMA_VERSION, _MIN_BUDGET
from repro.sweep.result import (
    canonical_dumps,
    canonical_json_with_hash,
    escape_sentinel,
)

_INF = float("inf")
_float_repr = float.__repr__
_int_repr = int.__repr__
#: ``float.__repr__`` of a non-finite float -> its JSON sentinel.
_SENTINELS = {"nan": '"NaN"', "inf": '"Infinity"', "-inf": '"-Infinity"'}
_BOOL = {True: "true", False: "false"}
#: Exact types of a verdict's numeric fields the typed path encodes.
_NUMERIC = frozenset((float, int))


class _Untyped(Exception):
    """A value the typed path does not encode; use the generic encoder."""


def _float(value: float) -> str:
    text = _float_repr(value)
    return _SENTINELS.get(text, text)


def _str(value: Any) -> str:
    if type(value) is not str:
        raise _Untyped
    return encode_basestring_ascii(escape_sentinel(value))


def _raw_number(value: Any) -> str:
    """A model field as ``to_dict()`` holds it: raw, so ``20`` stays ``20``."""
    kind = type(value)
    if kind is float:
        return _float(value)
    if kind is int:
        return _int_repr(value)
    if value is None:
        return "null"
    raise _Untyped


# -- report ------------------------------------------------------------------
def _verdict_key(verdict) -> Tuple:
    """Fragment key: the verdict's field values, zero signs included.

    Equal keys guarantee equal bytes only for exactly-typed numbers
    (``np.float64(0.5) == 0.5``, yet a numpy worst time makes the generic
    encoder fail), so any other type leaves the typed path.
    """
    times = verdict.times
    bound = verdict.bound
    if bound is None:
        numbers = (
            verdict.period, verdict.wcet, verdict.bcet, times.best, times.worst
        )
    else:
        numbers = (
            verdict.period, verdict.wcet, verdict.bcet, times.best, times.worst,
            bound.a, bound.b,
        )
    if not _NUMERIC.issuperset(map(type, numbers)):
        raise _Untyped
    if 0.0 in numbers:
        signs = tuple([copysign(1.0, x) for x in numbers if x == 0.0])
        return verdict.name, verdict.priority, numbers, signs
    return verdict.name, verdict.priority, numbers


def _encode_verdict(verdict) -> Tuple[str, bool, bool, Optional[float], str]:
    """``(fragment, deadline_met, ok, rel_slack, quoted name)`` of a verdict.

    The fragment is ``canonical_dumps(verdict.to_dict())``; the derived
    fields follow the :class:`~repro.api.report.TaskVerdict` properties
    and are computed once each.
    """
    times = verdict.times
    best, worst = times.best, times.worst
    finite = worst != _INF
    if type(finite) is not bool:
        raise _Untyped
    bound = verdict.bound
    if bound is None:
        slack = rel_slack = None
        stable = True
        bound_text = "null"
        slack_text = rel_text = "null"
    else:
        if finite:
            slack = float(bound.slack(best, worst - best))
            stable = bool(bound.is_stable(best, worst - best))
        else:
            slack = -_INF
            stable = False
        rel_slack = float(slack / max(bound.b, _MIN_BUDGET))
        bound_text = (
            f'{{"a":{_float(float(bound.a))},"b":{_float(float(bound.b))}}}'
        )
        slack_text = _float(slack)
        rel_text = _float(rel_slack)
    ok = finite and stable
    priority = verdict.priority
    best_text = _float(float(best))  # latency is R^b too
    name = _str(verdict.name)
    fragment = (
        f'{{"bcet":{_float(float(verdict.bcet))},'
        f'"best":{best_text},'
        f'"bound":{bound_text},'
        f'"deadline_met":{_BOOL[finite]},'
        f'"jitter":{_float(float(worst - best))},'
        f'"latency":{best_text},'
        f'"name":{name},'
        f'"ok":{_BOOL[ok]},'
        f'"period":{_float(float(verdict.period))},'
        f'"priority":{"null" if priority is None else _int_repr(int(priority))},'
        f'"rel_slack":{rel_text},'
        f'"slack":{slack_text},'
        f'"stable":{_BOOL[stable]},'
        f'"wcet":{_float(float(verdict.wcet))},'
        f'"worst":{_float(float(worst))}}}'
    )
    return fragment, finite, ok, rel_slack, name


def _typed_report_body(report, memo) -> Tuple[str, Dict[str, Any]]:
    verdicts = report.verdicts
    if memo is None:
        encoded = [_encode_verdict(verdict) for verdict in verdicts]
    else:
        keys = [_verdict_key(verdict) for verdict in verdicts]
        encoded = memo.fragments.lookup(
            keys, lambda index: _encode_verdict(verdicts[index])
        )
    utilization = float(sum([v.wcet / v.period for v in verdicts]))
    schedulable = all([entry[1] for entry in encoded])
    stable = all([entry[2] for entry in encoded])
    violating = ",".join([entry[4] for entry in encoded if not entry[2]])
    rel_slacks = [entry[3] for entry in encoded if entry[3] is not None]
    body = (
        f'{{"n_tasks":{len(verdicts)},'
        f'"name":{_str(report.name)},'
        f'"priority_policy":{_str(report.priority_policy)},'
        f'"schedulable":{_BOOL[schedulable]},'
        f'"schema_version":{SCHEMA_VERSION},'
        f'"stable":{_BOOL[stable]},'
        f'"tasks":[{",".join([entry[0] for entry in encoded])}],'
        f'"utilization":{_float(utilization)},'
        f'"violating":[{violating}]}}'
    )
    summary = {
        "name": report.name,
        "n_tasks": len(verdicts),
        "utilization": utilization,
        "schedulable": schedulable,
        "stable": stable,
        "min_rel_slack": min(rel_slacks) if rel_slacks else None,
    }
    return body, summary


def _typed_report(report, memo) -> Optional[Tuple[str, Dict[str, Any]]]:
    """``(body, summary)`` through the typed path; ``None`` to go generic.

    The summary (:meth:`~repro.api.report.AnalysisReport.summary`) is
    memoised on the report, so the daemon's ``summary()`` call after
    encoding does not walk the verdicts again.
    """
    try:
        body, summary = _typed_report_body(report, memo)
    except Exception:  # noqa: BLE001 -- the generic encoder decides
        return None
    object.__setattr__(report, "_cache_summary", summary)
    return body, summary


def report_body(report, memo=None) -> str:
    """Canonical report JSON without the embedded hash (``canonical_json``)."""
    typed = _typed_report(report, memo)
    if typed is None:
        return canonical_dumps(report._canonical_dict())
    return typed[0]


def _report_json(report, memo) -> Tuple[str, Optional[Dict[str, Any]]]:
    typed = _typed_report(report, memo)
    if typed is None:
        return canonical_json_with_hash(report._canonical_dict())[0], None
    body, summary = typed
    sha = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return f'{{"canonical_sha256":"{sha}",{body[1:]}', summary


def report_json(report, memo=None) -> str:
    """The served report bytes: canonical JSON with the hash spliced in.

    Byte-identical to ``canonical_json_with_hash(report._canonical_dict())``.
    ``memo`` reuses encoded verdict fragments (see the module docstring);
    without it every verdict is encoded.
    """
    return _report_json(report, memo)[0]


# -- assignment outcome ------------------------------------------------------
def _typed_outcome(outcome) -> str:
    report = outcome.report
    if report is None:
        report_text, ok = "null", False
    else:
        report_text, summary = _report_json(report, None)
        ok = report.stable if summary is None else summary["stable"]
    return (
        f'{{"algorithm":{_str(outcome.algorithm)},'
        f'"assigned":{_BOOL[outcome.result.priorities is not None]},'
        f'"assignment":{canonical_dumps(outcome.result.to_dict())},'
        f'"name":{_str(outcome.name)},'
        f'"ok":{_BOOL[ok]},'
        f'"report":{report_text},'
        f'"schema_version":{SCHEMA_VERSION}}}'
    )


def outcome_json(outcome) -> str:
    """The served outcome bytes: ``canonical_dumps(outcome.to_dict())``.

    The nested report is :func:`report_json`; the ``assignment`` block
    is small and keyed by task names (which the generic encoder leaves
    unescaped as keys), so it stays the generic encoding.
    """
    try:
        return _typed_outcome(outcome)
    except Exception:  # noqa: BLE001 -- the generic encoder decides
        return canonical_dumps(outcome.to_dict())


# -- system model ------------------------------------------------------------
#: Exact types of a model task's numeric fields the typed path encodes.
_MODEL_NUMERIC = frozenset((float, int, type(None)))


def _model_task_key(task) -> Tuple:
    """Fragment key of one model task: field values, exact types, zero signs.

    ``_raw_number`` writes ``20`` and ``20.0`` apart although they are
    equal (and hash alike), and ``-0.0`` apart from ``0.0``, so both the
    type of every number and the sign of every zero are part of the key.
    Any value the typed path does not encode leaves it here.
    """
    bound = task.stability
    if bound is None:
        numbers = (task.period, task.wcet, task.bcet, task.priority)
    else:
        numbers = (
            task.period, task.wcet, task.bcet, task.priority, bound.a, bound.b,
        )
    kinds = tuple(map(type, numbers))
    name, plant = task.name, task.plant_name
    if (
        not _MODEL_NUMERIC.issuperset(kinds)
        or type(name) is not str
        or not (plant is None or type(plant) is str)
    ):
        raise _Untyped
    if 0.0 in numbers:
        signs = tuple([copysign(1.0, x) for x in numbers if x == 0.0])
        return name, plant, numbers, kinds, signs
    return name, plant, numbers, kinds


def _encode_model_task(task) -> str:
    """``canonical_dumps`` of one task entry of ``system.to_dict()``."""
    fields = [
        f'"bcet":{_raw_number(task.bcet)}',
        f'"name":{_str(task.name)}',
        f'"period":{_raw_number(task.period)}',
    ]
    if task.plant_name is not None:
        fields.append(f'"plant":{_str(task.plant_name)}')
    if task.priority is not None:
        fields.append(f'"priority":{_raw_number(task.priority)}')
    stability = task.stability
    if stability is not None:
        fields.append(
            f'"stability":{{"a":{_raw_number(stability.a)},'
            f'"b":{_raw_number(stability.b)}}}'
        )
    fields.append(f'"wcet":{_raw_number(task.wcet)}')
    return "{" + ",".join(fields) + "}"


def _typed_model(system, fragments) -> str:
    tasks = list(system.taskset)
    if fragments is None:
        encoded = [_encode_model_task(task) for task in tasks]
    else:
        encoded = fragments.lookup(
            [_model_task_key(task) for task in tasks],
            lambda index: _encode_model_task(tasks[index]),
        )
    return (
        f'{{"name":{_str(system.name)},'
        f'"priority_policy":{_str(system.priority_policy)},'
        f'"schema_version":{SCHEMA_VERSION},'
        f'"tasks":[{",".join(encoded)}]}}'
    )


def model_json(system, fragments=None) -> str:
    """The model's canonical JSON: ``canonical_dumps(system.to_dict())``.

    ``fragments`` (a :class:`~repro.memo.FragmentStore`) reuses the
    encoded entries of tasks seen before (see the module docstring);
    without it every task is encoded.
    """
    try:
        return _typed_model(system, fragments)
    except Exception:  # noqa: BLE001 -- the generic encoder decides
        return canonical_dumps(system.to_dict())
