"""``ControlTaskSystem.from_dict``: what the schema boundary accepts and
the exact error it raises for each malformed task entry.

The messages are pinned verbatim: the served 400 body is the
``ModelError`` text, so a client sees the same first bad entry and field
whatever the parser's internals.  Each case is written as JSON text and
goes through ``json.loads`` first, as a request body does (bare
``NaN``/``Infinity`` literals included).
"""

from __future__ import annotations

import json

import pytest

from repro.api.model import ControlTaskSystem
from repro.errors import ModelError

_BASE = {
    "name": "t",
    "period": 20.0,
    "wcet": 2.0,
    "bcet": 1.0,
    "priority": 1,
    "stability": {"a": 1.2, "b": 8.0},
}
_GOOD = {
    "name": "g",
    "period": 10.0,
    "wcet": 1.0,
    "bcet": 0.5,
    "priority": 2,
    "stability": {"a": 1.5, "b": 4.0},
}
_DROP = object()
_NAN, _INF = float("nan"), float("inf")


def _entry(**edits):
    entry = json.loads(json.dumps(_BASE))
    for key, value in edits.items():
        if value is _DROP:
            del entry[key]
        else:
            entry[key] = value
    return entry


def _parse(entries):
    # allow_nan (the json default) writes NaN/Infinity literals, which
    # json.loads accepts back: the request-body route.
    data = json.loads(json.dumps({"name": "m", "tasks": entries}))
    return ControlTaskSystem.from_dict(data)


_MISSING = "is missing required field(s) {}; each task needs at least name/period/wcet"
_SHAPE = "task entry 0: 'stability' must be an object with fields 'a' and 'b'"
_MALFORMED = "task entry {} has a malformed field: "
_NOT_FLOAT = "could not convert string to float: 'x'"

#: ``(case id, task entries, exact ModelError text)``.
REJECTED = [
    ("not_object", [1], "task entry 0 must be an object, got int"),
    ("list_entry", [[1, 2]], "task entry 0 must be an object, got list"),
    ("missing_name", [_entry(name=_DROP)], "task entry 0 " + _MISSING.format("['name']")),
    ("missing_period", [_entry(period=_DROP)], "task entry 0 " + _MISSING.format("['period']")),
    ("missing_wcet", [_entry(wcet=_DROP)], "task entry 0 " + _MISSING.format("['wcet']")),
    ("missing_all", [{}], "task entry 0 " + _MISSING.format("['name', 'period', 'wcet']")),
    ("stability_number", [_entry(stability=3)], _SHAPE),
    ("stability_list", [_entry(stability=[1, 2])], _SHAPE),
    ("stability_lacks_a", [_entry(stability={"b": 1.0})], _SHAPE),
    ("stability_lacks_b", [_entry(stability={"a": 1.0})], _SHAPE),
    ("period_x", [_entry(period="x")], _MALFORMED.format(0) + _NOT_FLOAT),
    (
        "priority_x",
        [_entry(priority="x")],
        _MALFORMED.format(0) + "invalid literal for int() with base 10: 'x'",
    ),
    (
        "bcet_above_wcet",
        [_entry(bcet=3.0)],
        _MALFORMED.format(0) + "task 't': need 0 < bcet <= wcet, got bcet=3.0, wcet=2.0",
    ),
    ("bad_after_good", [_GOOD, _entry(wcet="x")], _MALFORMED.format(1) + _NOT_FLOAT),
    (
        "missing_after_good",
        [_GOOD, _entry(period=_DROP)],
        "task entry 1 " + _MISSING.format("['period']"),
    ),
    (
        "wcet_null",
        [_entry(wcet=None)],
        _MALFORMED.format(0)
        + "float() argument must be a string or a real number, not 'NoneType'",
    ),
    (
        "a_null",
        [_entry(stability={"a": None, "b": 1.0})],
        _MALFORMED.format(0)
        + "float() argument must be a string or a real number, not 'NoneType'",
    ),
    ("a_x", [_entry(stability={"a": "x", "b": 1.0})], _MALFORMED.format(0) + _NOT_FLOAT),
    (
        "a_below_one",
        [_entry(stability={"a": 0.5, "b": 1.0})],
        _MALFORMED.format(0) + "coefficient a must be >= 1, got 0.5",
    ),
    (
        "b_negative",
        [_entry(stability={"a": 1.5, "b": -1.0})],
        _MALFORMED.format(0) + "coefficient b must be >= 0, got -1.0",
    ),
    (
        "period_negative",
        [_entry(period=-1.0)],
        _MALFORMED.format(0) + "task 't': period must be positive",
    ),
    (
        "wcet_above_period",
        [_entry(wcet=30.0)],
        _MALFORMED.format(0)
        + "task 't': wcet 30.0 exceeds period 20.0 (implicit deadline unschedulable alone)",
    ),
    (
        "priority_list",
        [_entry(priority=[1])],
        _MALFORMED.format(0)
        + "int() argument must be a string, a bytes-like object or a real number, not 'list'",
    ),
    (
        "period_list",
        [_entry(period=[1])],
        _MALFORMED.format(0)
        + "float() argument must be a string or a real number, not 'list'",
    ),
    (
        "period_huge_int",
        [_entry(period=10**400)],
        _MALFORMED.format(0) + "int too large to convert to float",
    ),
    (
        "priority_nan",
        [_entry(priority=_NAN)],
        _MALFORMED.format(0) + "cannot convert float NaN to integer",
    ),
    (
        "priority_infinity",
        [_entry(priority=_INF)],
        _MALFORMED.format(0) + "cannot convert float infinity to integer",
    ),
    ("period_nan_string", [_entry(period="nan")], "task entry 0: period must be finite, got 'nan'"),
    ("period_inf_string", [_entry(period="inf")], "task entry 0: period must be finite, got 'inf'"),
    (
        "duplicate_names",
        [_BASE, _BASE],
        "duplicate task names in task set: ['t', 't']",
    ),
    # JSON booleans are not numbers, though float(True) is 1.0.
    ("priority_bool", [_entry(priority=True)], "task entry 0: priority must be a number, got True"),
    (
        "b_bool",
        [_entry(stability={"a": 1.5, "b": True})],
        "task entry 0: stability coefficient 'b' must be a number, got True",
    ),
    (
        "a_bool",
        [_entry(stability={"a": False, "b": 8.0})],
        "task entry 0: stability coefficient 'a' must be a number, got False",
    ),
    ("period_bool", [_entry(period=True)], "task entry 0: period must be a number, got True"),
    ("wcet_bool", [_entry(wcet=False)], "task entry 0: wcet must be a number, got False"),
    ("bcet_bool", [_entry(bcet=True)], "task entry 0: bcet must be a number, got True"),
    # Several bad fields in one entry: the first one reported is the
    # first in the boundary's order -- shape, then booleans (period,
    # wcet, bcet, priority, a, b), then non-finite values (a, b, period,
    # wcet, bcet), then unconvertible ones (period, wcet, bcet, priority,
    # a, b), then the bound's and the task's own checks.
    ("shape_before_bool", [_entry(stability=3, period=True)], _SHAPE),
    (
        "bool_before_nan",
        [_entry(period=_NAN, priority=True)],
        "task entry 0: priority must be a number, got True",
    ),
    (
        "bool_before_unconvertible",
        [_entry(period="x", stability={"a": 1.5, "b": True})],
        "task entry 0: stability coefficient 'b' must be a number, got True",
    ),
    (
        "priority_bool_before_a_bool",
        [_entry(priority=False, stability={"a": True, "b": 8.0})],
        "task entry 0: priority must be a number, got False",
    ),
    (
        "name_missing_before_shape",
        [_entry(name=_DROP, stability=3)],
        "task entry 0 " + _MISSING.format("['name']"),
    ),
    ("shape_before_nan", [_entry(stability=3, period=_NAN)], _SHAPE),
    (
        "nan_before_unconvertible",
        [_entry(period="x", wcet=_NAN)],
        "task entry 0: wcet must be finite, got nan",
    ),
    (
        "b_nan_after_a_unconvertible",
        [_entry(stability={"a": "x", "b": _NAN})],
        "task entry 0: stability coefficient 'b' must be finite, got nan",
    ),
    (
        "period_inf_before_bcet_x",
        [_entry(period=_INF, bcet="x")],
        "task entry 0: period must be finite, got inf",
    ),
    (
        "priority_x_before_wcet_nan",
        [_entry(priority="x", wcet=_NAN)],
        "task entry 0: wcet must be finite, got nan",
    ),
    ("wcet_x_before_priority_y", [_entry(wcet="x", priority="y")], _MALFORMED.format(0) + _NOT_FLOAT),
    (
        "priority_x_before_bound",
        [_entry(priority="x", stability={"a": 0.5, "b": 1.0})],
        _MALFORMED.format(0) + "invalid literal for int() with base 10: 'x'",
    ),
    (
        "period_x_before_bound",
        [_entry(period="x", stability={"a": 1.5, "b": -1.0})],
        _MALFORMED.format(0) + _NOT_FLOAT,
    ),
    (
        "wcet_inf_before_bound",
        [_entry(wcet=_INF, stability={"a": 1.5, "b": -1.0})],
        "task entry 0: wcet must be finite, got inf",
    ),
    (
        "bound_before_task",
        [_entry(stability={"a": 0.5, "b": 1.0}, bcet=3.0)],
        _MALFORMED.format(0) + "coefficient a must be >= 1, got 0.5",
    ),
]
for _field in ("a", "b"):
    for _value, _text in ((_NAN, "nan"), (_INF, "inf"), (-_INF, "-inf")):
        _bound = {"a": 1.2, "b": 8.0, _field: _value}
        REJECTED.append(
            (
                f"{_field}_{_text}",
                [_entry(stability=_bound)],
                f"task entry 0: stability coefficient {_field!r} must be finite, got {_text}",
            )
        )
for _field in ("period", "wcet", "bcet"):
    for _value, _text in ((_NAN, "nan"), (_INF, "inf"), (-_INF, "-inf")):
        REJECTED.append(
            (
                f"{_field}_{_text}",
                [_entry(**{_field: _value})],
                f"task entry 0: {_field} must be finite, got {_text}",
            )
        )

#: ``(case id, task entry, (name, period, wcet, bcet, priority, a, b, plant))``.
ACCEPTED = [
    ("floats", _BASE, ("t", 20.0, 2.0, 1.0, 1, 1.2, 8.0, None)),
    (
        "ints",
        _entry(period=20, wcet=2, bcet=1, priority=3, stability={"a": 2, "b": 8}),
        ("t", 20.0, 2.0, 1.0, 3, 2.0, 8.0, None),
    ),
    (
        "numeric_strings",
        _entry(
            period="20", wcet="2.5", bcet="1", priority="3",
            stability={"a": "1.5", "b": "8"},
        ),
        ("t", 20.0, 2.5, 1.0, 3, 1.5, 8.0, None),
    ),
    ("bcet_absent", _entry(bcet=_DROP), ("t", 20.0, 2.0, 2.0, 1, 1.2, 8.0, None)),
    ("bcet_null", _entry(bcet=None), ("t", 20.0, 2.0, 2.0, 1, 1.2, 8.0, None)),
    ("priority_absent", _entry(priority=_DROP), ("t", 20.0, 2.0, 1.0, None, 1.2, 8.0, None)),
    ("priority_float", _entry(priority=2.7), ("t", 20.0, 2.0, 1.0, 2, 1.2, 8.0, None)),
    (
        "plant_without_stability",
        _entry(stability=_DROP, plant="dc_servo"),
        ("t", 20.0, 2.0, 1.0, 1, None, None, "dc_servo"),
    ),
    ("stability_null", _entry(stability=None), ("t", 20.0, 2.0, 1.0, 1, None, None, None)),
    ("plant_number", _entry(stability=_DROP, plant=5), ("t", 20.0, 2.0, 1.0, 1, None, None, "5")),
    ("name_number", _entry(name=7), ("7", 20.0, 2.0, 1.0, 1, 1.2, 8.0, None)),
    ("b_zero", _entry(stability={"a": 1.5, "b": 0}), ("t", 20.0, 2.0, 1.0, 1, 1.5, 0.0, None)),
]


class TestRejected:
    @pytest.mark.parametrize(
        "entries, message",
        [case[1:] for case in REJECTED],
        ids=[case[0] for case in REJECTED],
    )
    def test_error_text(self, entries, message):
        with pytest.raises(ModelError) as caught:
            _parse(entries)
        assert str(caught.value) == message


class TestAccepted:
    @pytest.mark.parametrize(
        "entry, expected",
        [case[1:] for case in ACCEPTED],
        ids=[case[0] for case in ACCEPTED],
    )
    def test_fields(self, entry, expected):
        (task,) = _parse([_GOOD, entry]).taskset.tasks[1:]
        bound = task.stability
        got = (
            task.name, task.period, task.wcet, task.bcet, task.priority,
            None if bound is None else bound.a,
            None if bound is None else bound.b,
            task.plant_name,
        )
        assert got == expected
        # The converted types, not just the values: the model hash
        # writes 20.0 and 20 apart.
        assert [type(x) for x in got[1:4]] == [float] * 3
        assert task.priority is None or type(task.priority) is int
        if bound is not None:
            assert type(bound.a) is float and type(bound.b) is float

    def test_negative_zero_bound_survives(self):
        (task,) = _parse([_entry(stability={"a": 1.5, "b": -0.0})]).taskset
        assert str(task.stability.b) == "-0.0"
