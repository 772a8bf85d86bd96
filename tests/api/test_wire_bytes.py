"""The served wire bytes: pinned shas and the typed-encoder oracle.

``tests/api/golden_report.json`` pins only the indented file form
(``write()``), and every served-bytes test compares the daemon against
the same tree's façade, so a drift both share would pass there.  The
constants below were recorded from the generic encoder
(``canonical_dumps`` over ``to_dict()``) before the typed encoders of
:mod:`repro.api.wire` existed; the hypothesis oracle then holds the
typed bytes to that generic encoder over generated reports, outcomes
and models, and the memo tests hold fragment reuse to cold encodes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ControlTaskSystem, analyze, assign
from repro.api.report import AnalysisReport, TaskVerdict
from repro.api.service import AssignmentOutcome
from repro.api.wire import model_json
from repro.jittermargin.linearbound import LinearStabilityBound
from repro.memo import AnalysisMemo, FragmentStore
from repro.rta.interface import ResponseTimes
from repro.rta.taskset import Task, TaskSet
from repro.search.result import AssignmentResult
from repro.sweep.result import canonical_dumps, canonical_json_with_hash

from tests.api.test_report_schema import _golden_system

EXAMPLE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "system.json"
)

#: sha256 of the served bytes, recorded with the generic encoder.
GOLDEN_REPORT_SHA = (
    "8605c5240a0684cc79895657e4569eeca66548c2e0e0c9f3d0123c9d4567e3a7"
)
EXAMPLE_REPORT_SHA = (
    "6261a514af7e4800cc314eed1cc7889ac6095c134c7da26b117ecf11f2a1afc4"
)
EXAMPLE_OUTCOME_SHA = (
    "fc11a1a7e6f32f1334d636af7d84dab20f698d363dbd39a76639c30b4ddda671"
)
GOLDEN_MODEL_SHA = (
    "1904ed5fdf923ece7938882696cc20d202644d1aeb14a34842b2344197ae0478"
)
EXAMPLE_MODEL_SHA = (
    "f17e262637957feb8fd58603f8311fba71af75f759589d9e3548828aceab5ba7"
)


@pytest.fixture(autouse=True, scope="module")
def _quiet_numpy():
    """Generated numpy values divide by zero on purpose; no warnings."""
    with np.errstate(all="ignore"):
        yield


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _example() -> ControlTaskSystem:
    return ControlTaskSystem.from_json(EXAMPLE_PATH)


class TestPinnedBytes:
    def test_golden_report_json(self):
        assert _sha(analyze(_golden_system()).report_json()) == GOLDEN_REPORT_SHA

    def test_example_report_json(self):
        assert _sha(analyze(_example()).report_json()) == EXAMPLE_REPORT_SHA

    def test_example_outcome_json(self):
        outcome = assign(_example(), algorithm="backtracking")
        assert _sha(outcome.outcome_json()) == EXAMPLE_OUTCOME_SHA

    def test_model_canonical_json(self):
        assert _sha(_golden_system().canonical_json()) == GOLDEN_MODEL_SHA
        assert _sha(_example().canonical_json()) == EXAMPLE_MODEL_SHA
        assert _golden_system().canonical_sha256() == GOLDEN_MODEL_SHA
        assert _example().canonical_sha256() == EXAMPLE_MODEL_SHA


# -- the typed encoders against the generic one -------------------------------
#: Names that exercise the escape rule and the JSON string escapes.
_NAMES = st.one_of(
    st.sampled_from(
        [
            "NaN",
            "~NaN",
            "~~NaN",
            "Infinity",
            "-Infinity",
            "~-Infinity",
            'say "hi"',
            "back\\slash",
            "tab\tnew\nline\x00\x1f",
            "ünïcødé",
            "日本語",
            "emoji \U0001f600",
            "",
        ]
    ),
    st.text(max_size=10),
)
_POSITIVE = st.floats(min_value=1e-9, max_value=1e6)
#: A numeric field: float (incl. signed zeros and non-finites), int, or
#: a numpy ``float64`` (a float subclass the typed path leaves alone).
_NUMBER = st.one_of(
    _POSITIVE,
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**6), max_value=10**6),
    _POSITIVE.map(np.float64),
    st.sampled_from([0.0, -0.0, 0]),
)
_BOUND = st.one_of(
    st.none(),
    st.builds(
        LinearStabilityBound,
        a=st.one_of(
            st.floats(min_value=1.0, max_value=50.0),
            st.integers(min_value=1, max_value=5),
            st.floats(min_value=1.0, max_value=5.0).map(np.float64),
        ),
        b=st.one_of(
            st.sampled_from([0.0, -0.0]),
            st.floats(min_value=0.0, max_value=1e3),
            st.integers(min_value=0, max_value=10),
        ),
    ),
)
_PRIORITY = st.one_of(st.none(), st.integers(min_value=-5, max_value=10**4))


@st.composite
def _verdicts(draw):
    best = draw(_NUMBER)
    worst = draw(st.one_of(_NUMBER, st.just(float("inf"))))
    return TaskVerdict(
        name=draw(_NAMES),
        period=draw(_NUMBER),
        wcet=draw(_NUMBER),
        bcet=draw(_NUMBER),
        priority=draw(_PRIORITY),
        times=ResponseTimes(best=best, worst=worst),
        bound=draw(_BOUND),
    )


_REPORTS = st.builds(
    AnalysisReport,
    name=_NAMES,
    priority_policy=st.sampled_from(["as_given", "backtracking", "NaN"]),
    verdicts=st.lists(_verdicts(), max_size=6).map(tuple),
)


def _result_of(fn):
    """``fn()``'s bytes, or the type of what it raised."""
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 -- errors must match too
        return "error", type(exc)


def _rollup(report: AnalysisReport) -> str:
    """The property-based summary, through repr so NaNs compare."""
    fresh = AnalysisReport(report.name, report.priority_policy, report.verdicts)
    return repr(_result_of(fresh.summary))


class TestTypedEncoderOracle:
    @settings(max_examples=500)
    @given(report=_REPORTS)
    def test_report_bytes(self, report):
        expected = _result_of(
            lambda: canonical_json_with_hash(report._canonical_dict())[0]
        )
        assert _result_of(report.report_json) == expected
        assert _result_of(
            lambda: report.report_json(memo=AnalysisMemo())
        ) == expected
        assert _result_of(report.canonical_json) == _result_of(
            lambda: canonical_dumps(report._canonical_dict())
        )
        if expected[0] == "ok":
            assert report.canonical_sha256() == json.loads(expected[1])[
                "canonical_sha256"
            ]
        # summary() after an encode is the encoding pass's rollup.
        assert repr(_result_of(report.summary)) == _rollup(report)

    @settings(max_examples=500)
    @given(
        report=st.one_of(st.none(), _REPORTS),
        name=_NAMES,
        algorithm=st.sampled_from(["backtracking", "audsley", "Infinity"]),
        priorities=st.one_of(
            st.none(), st.dictionaries(_NAMES, st.integers(0, 50), max_size=4)
        ),
        claims_valid=st.one_of(st.none(), st.booleans()),
        counts=st.tuples(*[st.integers(0, 10**6)] * 3),
    )
    def test_outcome_bytes(
        self, report, name, algorithm, priorities, claims_valid, counts
    ):
        evaluations, backtracks, cache_hits = counts
        outcome = AssignmentOutcome(
            name=name,
            algorithm=algorithm,
            result=AssignmentResult(
                algorithm=algorithm,
                priorities=priorities,
                claims_valid=claims_valid,
                evaluations=evaluations,
                backtracks=backtracks,
                cache_hits=cache_hits,
            ),
            system=None,
            report=report,
        )
        expected = _result_of(lambda: canonical_dumps(outcome.to_dict()))
        assert _result_of(outcome.outcome_json) == expected

    @settings(max_examples=500)
    @given(
        name=_NAMES,
        policy=st.sampled_from(["as_given", "backtracking", "audsley"]),
        rows=st.lists(
            st.tuples(
                _NAMES,
                st.one_of(
                    st.floats(min_value=1.0, max_value=100.0),
                    st.integers(min_value=1, max_value=100),
                    st.floats(min_value=1.0, max_value=100.0).map(np.float64),
                ),
                st.floats(min_value=0.01, max_value=1.0),
                st.one_of(st.none(), st.floats(min_value=0.1, max_value=1.0)),
                _PRIORITY,
                st.one_of(st.none(), st.sampled_from(["dc_servo", "NaN"])),
                _BOUND,
            ),
            min_size=1,
            max_size=5,
            unique_by=lambda row: row[0],
        ),
    )
    def test_model_bytes(self, name, policy, rows):
        tasks = []
        for task_name, period, share, bcet_share, priority, plant, bound in rows:
            wcet = share * period
            if type(period) is int and share == 1.0:
                wcet = period  # an int wcet
            tasks.append(
                Task(
                    task_name,
                    period=period,
                    wcet=wcet,
                    bcet=None if bcet_share is None else bcet_share * wcet,
                    priority=priority,
                    stability=bound,
                    plant_name=plant,
                )
            )
        system = ControlTaskSystem(
            taskset=TaskSet(tasks), name=name or "x", priority_policy=policy
        )
        expected = _result_of(lambda: canonical_dumps(system.to_dict()))
        assert _result_of(system.canonical_json) == expected
        if expected[0] == "ok":
            assert system.canonical_sha256() == _sha(expected[1])

    def test_int_period_stays_an_int(self):
        system = ControlTaskSystem(
            taskset=TaskSet([Task("t", period=20, wcet=5, bcet=2, priority=1)]),
            name="ints",
        )
        assert '"period":20,' in system.canonical_json()
        report = analyze(system)
        # The report's schema coerces to float, the model's does not.
        assert '"period":20.0,' in report.report_json()


# -- fragment reuse through the memo ------------------------------------------
def _twin_reports():
    """Reports whose verdicts pair up equal-but-not-identical.

    ``b = 0.0`` and ``b = -0.0`` verdicts are ``==`` and hash-equal, yet
    ``"b":0.0`` and ``"b":-0.0`` differ on the wire.
    """
    reports = []
    for sign in (0.0, -0.0):
        verdicts = []
        for k in range(4):
            bound = LinearStabilityBound(a=1.5, b=sign if k == 1 else 0.5 + k)
            verdicts.append(
                TaskVerdict(
                    name=f"t{k}",
                    period=10.0 * (k + 1),
                    wcet=1.0,
                    bcet=0.5,
                    priority=4 - k,
                    times=ResponseTimes(best=0.5 + k, worst=1.0 + k),
                    bound=bound,
                )
            )
        reports.append(AnalysisReport("twin", "as_given", tuple(verdicts)))
    return reports


class TestFragmentReuse:
    def test_signed_zero_twins_are_equal_but_encode_apart(self):
        plus, minus = _twin_reports()
        assert plus.verdicts == minus.verdicts
        assert hash(plus.verdicts[1]) == hash(minus.verdicts[1])
        assert '"b":0.0' in plus.report_json()
        assert '"b":-0.0' in minus.report_json()

    def test_shuffled_reencode_through_one_memo_matches_cold(self):
        reports = _twin_reports() + [
            analyze(_golden_system()),
            analyze(_example()),
        ]
        cold = [report.report_json() for report in reports]
        memo = AnalysisMemo(max_entries=64)
        order = list(range(len(reports)))
        rng = random.Random(19)
        for _ in range(2):
            rng.shuffle(order)
            for k in order:
                # A fresh report object each time: nothing is reused
                # but the memo's fragments.
                again = AnalysisReport(
                    reports[k].name, reports[k].priority_policy,
                    reports[k].verdicts,
                )
                assert again.report_json(memo=memo) == cold[k]
        stats = memo.stats()
        assert stats["fragment_hits"] > 0
        assert stats["fragment_entries"] == stats["fragment_misses"]

    @settings(max_examples=200)
    @given(
        pool=st.lists(_verdicts(), min_size=1, max_size=8),
        picks=st.lists(
            st.lists(st.integers(0, 7), min_size=1, max_size=5),
            min_size=1,
            max_size=6,
        ),
    )
    def test_memo_bytes_equal_cold_bytes(self, pool, picks):
        memo = AnalysisMemo(max_entries=4)  # small: eviction runs too
        for pick in picks + picks:
            verdicts = tuple(pool[k % len(pool)] for k in pick)
            report = AnalysisReport("m", "as_given", verdicts)
            cold = _result_of(AnalysisReport("m", "as_given", verdicts).report_json)
            assert _result_of(lambda: report.report_json(memo=memo)) == cold

    def test_fragment_store_is_bounded(self):
        memo = AnalysisMemo(max_entries=3)
        report = analyze(_example())
        report.report_json(memo=memo)
        analyze(_golden_system()).report_json(memo=memo)
        assert memo.stats()["fragment_entries"] <= 3
        assert report.report_json(memo=memo) == report.report_json()


# -- model task fragments through one shared store ---------------------------
#: One small store shared by every example: entries are evicted, and a
#: later example's key can meet an earlier example's equal-but-not-
#: identical one.
_MODEL_FRAGMENTS = FragmentStore(max_entries=12)


def _spellings(value):
    """Values equal to ``value`` (and hashing alike) that the model
    writes apart: ``20``/``20.0``/numpy's, ``0.0``/``-0.0``, ``1``/``True``."""
    if value is None:
        return [None]
    spellings = [float(value), np.float64(value)]
    if float(value).is_integer():
        spellings.append(int(value))
    if value == 0:
        spellings += [0.0, -0.0, np.float64(-0.0)]
    if value == 1:
        spellings.append(True)
    return spellings


_MODEL_TASKS = st.builds(
    Task,
    st.sampled_from(["t", "NaN", "~-Infinity"]),
    period=st.sampled_from(_spellings(20)),
    wcet=st.sampled_from(_spellings(5)),
    bcet=st.sampled_from(_spellings(2) + [None]),
    priority=st.sampled_from(_spellings(1) + [None, 2]),
    stability=st.one_of(
        st.none(),
        st.builds(
            LinearStabilityBound,
            a=st.sampled_from(_spellings(1)),
            b=st.sampled_from(_spellings(0) + _spellings(3)),
        ),
    ),
    plant_name=st.sampled_from([None, "NaN"]),
)


def _one_field_twins(task):
    """Every task equal to ``task`` but for one number's spelling."""
    twins = []
    for field in ("period", "wcet", "bcet", "priority"):
        for value in _spellings(getattr(task, field)):
            twins.append(dataclasses.replace(task, **{field: value}))
    if task.stability is not None:
        for field in ("a", "b"):
            for value in _spellings(getattr(task.stability, field)):
                bound = dataclasses.replace(task.stability, **{field: value})
                twins.append(dataclasses.replace(task, stability=bound))
    return twins


class TestModelFragmentStore:
    @settings(max_examples=100)
    @given(tasks=st.lists(_MODEL_TASKS, min_size=1, max_size=3))
    def test_store_bytes_equal_generic_bytes(self, tasks):
        systems = [
            ControlTaskSystem(taskset=TaskSet([twin]), name="m")
            for task in tasks
            for twin in [task] + _one_field_twins(task)
        ]
        for order in (systems, systems[::-1]):
            for system in order:
                expected = _result_of(lambda: canonical_dumps(system.to_dict()))
                assert _result_of(
                    lambda: model_json(system, fragments=_MODEL_FRAGMENTS)
                ) == expected
        assert _MODEL_FRAGMENTS.stats()["entries"] <= 12

    def test_edited_model_reuses_all_but_the_edited_task(self):
        store = FragmentStore()
        system = _example()
        base = model_json(system, fragments=store)
        tasks = list(system.taskset)
        tasks[-1] = dataclasses.replace(tasks[-1], wcet=tasks[-1].wcet * 1.25)
        edited = ControlTaskSystem(
            taskset=TaskSet(tasks), name=system.name,
            priority_policy=system.priority_policy,
        )
        assert model_json(edited, fragments=store) == edited.canonical_json()
        assert base == system.canonical_json()
        assert store.stats() == {
            "entries": len(tasks) + 1,
            "hits": len(tasks) - 1,
            "misses": len(tasks) + 1,
        }
