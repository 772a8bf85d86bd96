"""Golden-file and round-trip tests of the report JSON schema.

The golden file pins the *bytes* of the versioned report schema for a
fixed system (including the non-finite sentinel encoding and a violating
task), so any unintentional schema drift -- a renamed field, a changed
float format, a reordered key -- fails here with a diff instead of
surfacing in a consumer.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.api import (
    SCHEMA_VERSION,
    AnalysisReport,
    ControlTaskSystem,
    analyze,
    batch_report_dict,
)
from repro.errors import ModelError
from repro.jittermargin.linearbound import LinearStabilityBound
from repro.rta.taskset import Task, TaskSet

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_report.json")

#: Expected keys of one task entry in the report schema (v1).
TASK_KEYS = {
    "name",
    "period",
    "wcet",
    "bcet",
    "priority",
    "best",
    "worst",
    "latency",
    "jitter",
    "deadline_met",
    "bound",
    "slack",
    "rel_slack",
    "stable",
    "ok",
}

#: Expected top-level keys of the report schema (v1).
REPORT_KEYS = {
    "schema_version",
    "name",
    "priority_policy",
    "n_tasks",
    "utilization",
    "schedulable",
    "stable",
    "violating",
    "tasks",
    "canonical_sha256",
}


def _golden_system() -> ControlTaskSystem:
    return ControlTaskSystem(
        taskset=TaskSet(
            [
                Task(
                    "roll",
                    period=0.01,
                    wcet=0.002,
                    bcet=0.001,
                    priority=3,
                    stability=LinearStabilityBound(a=1.25, b=0.008),
                ),
                Task(
                    "pitch",
                    period=0.02,
                    wcet=0.005,
                    bcet=0.002,
                    priority=2,
                    stability=LinearStabilityBound(a=1.1, b=0.015),
                ),
                Task(
                    "telemetry", period=0.05, wcet=0.04, bcet=0.02, priority=1
                ),
            ]
        ),
        name="golden",
        priority_policy="as_given",
    )


class TestGoldenReport:
    def test_report_bytes_match_golden_file(self, tmp_path):
        report = analyze(_golden_system())
        out = tmp_path / "report.json"
        report.write(str(out))
        with open(GOLDEN_PATH) as handle:
            assert out.read_text() == handle.read()

    def test_golden_file_is_schema_valid(self):
        with open(GOLDEN_PATH) as handle:
            data = json.load(handle)
        assert data["schema_version"] == SCHEMA_VERSION
        assert set(data) == REPORT_KEYS
        assert data["n_tasks"] == len(data["tasks"])
        for task in data["tasks"]:
            assert set(task) == TASK_KEYS
        # The golden deliberately contains a deadline-missing task: its
        # worst response encodes as the RFC-8259-safe sentinel string.
        telemetry = data["tasks"][-1]
        assert telemetry["worst"] == "Infinity"
        assert telemetry["ok"] is False
        assert data["violating"] == ["telemetry"]

    def test_embedded_hash_matches_canonical_json(self):
        report = analyze(_golden_system())
        with open(GOLDEN_PATH) as handle:
            data = json.load(handle)
        assert data["canonical_sha256"] == report.canonical_sha256()


class TestRoundTrip:
    def test_from_dict_load_preserves_canonical_hash(self, tmp_path):
        report = analyze(_golden_system())
        path = tmp_path / "r.json"
        report.write(str(path))
        reloaded = AnalysisReport.load(str(path))
        assert reloaded.canonical_sha256() == report.canonical_sha256()
        assert reloaded.canonical_json() == report.canonical_json()
        telemetry = reloaded.task("telemetry")
        assert math.isinf(telemetry.times.worst)
        assert telemetry.bound is None

    def test_from_dict_rejects_wrong_schema_version(self):
        payload = analyze(_golden_system()).to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ModelError, match="schema_version"):
            AnalysisReport.from_dict(payload)

    def test_batch_envelope_shape(self):
        reports = [analyze(_golden_system())]
        envelope = batch_report_dict(reports)
        assert envelope["schema_version"] == SCHEMA_VERSION
        assert envelope["n_systems"] == 1
        assert envelope["reports"][0]["name"] == "golden"
        assert len(envelope["canonical_sha256"]) == 64


class TestSentinelCollidingNames:
    """PR-5 regression: names spelled like non-finite sentinels survive.

    ``from_dict`` used to blanket-decode the whole dict, turning a task
    (or system) genuinely named ``"NaN"`` into ``float('nan')`` on any
    reload; decoding is now field-typed per the escape rule of
    :mod:`repro.sweep.result`.
    """

    def _system(self) -> ControlTaskSystem:
        return ControlTaskSystem(
            taskset=TaskSet(
                [
                    Task(
                        "NaN",
                        period=0.01,
                        wcet=0.002,
                        bcet=0.001,
                        priority=2,
                        stability=LinearStabilityBound(a=1.25, b=0.008),
                    ),
                    Task(
                        "Infinity", period=0.05, wcet=0.01, bcet=0.01, priority=1
                    ),
                ]
            ),
            name="-Infinity",
            priority_policy="as_given",
        )

    def test_report_write_load_round_trip(self, tmp_path):
        report = analyze(self._system())
        path = tmp_path / "r.json"
        report.write(str(path))
        reloaded = AnalysisReport.load(str(path))
        assert reloaded.name == "-Infinity"
        assert [v.name for v in reloaded.verdicts] == ["NaN", "Infinity"]
        assert reloaded.canonical_json() == report.canonical_json()
        assert reloaded.canonical_sha256() == report.canonical_sha256()

    def test_names_are_escaped_on_the_wire(self, tmp_path):
        report = analyze(self._system())
        path = tmp_path / "r.json"
        report.write(str(path))
        raw = json.loads(path.read_text())
        assert raw["name"] == "~-Infinity"
        assert raw["tasks"][0]["name"] == "~NaN"

    def test_from_dict_on_raw_unencoded_dict(self):
        # The in-memory path (no JSON in between) must round trip too.
        report = analyze(self._system())
        rebuilt = AnalysisReport.from_dict(report.to_dict())
        assert [v.name for v in rebuilt.verdicts] == ["NaN", "Infinity"]
        assert rebuilt.canonical_json() == report.canonical_json()

    def test_analyze_batch_sweep_path_preserves_names(self, tmp_path):
        from repro.api import analyze_batch

        systems = [self._system()]
        # cache_dir forces the sweep-engine path (chunk-cache round trip).
        (batched,) = analyze_batch(systems, jobs=1, cache_dir=str(tmp_path))
        direct = analyze(self._system())
        assert [v.name for v in batched.verdicts] == ["NaN", "Infinity"]
        assert batched.canonical_json() == direct.canonical_json()

    def test_hashes_unchanged_for_ordinary_names(self):
        # The escape rule must not move canonical bytes of reports whose
        # strings never collide -- pinned against the golden fixture.
        report = analyze(_golden_system())
        assert "~" not in report.canonical_json()

    def _tilde_system(self) -> ControlTaskSystem:
        # A name that *already* starts with the escape marker: the case
        # that breaks if anything unescapes a dict it never escaped.
        return ControlTaskSystem(
            taskset=TaskSet(
                [
                    Task("~NaN", period=0.01, wcet=0.002, bcet=0.001, priority=2),
                    Task("plain", period=0.05, wcet=0.01, bcet=0.01, priority=1),
                ]
            ),
            name="tilde",
            priority_policy="as_given",
        )

    def test_tilde_names_byte_identical_across_batch_paths(self, tmp_path):
        from repro.api import analyze_batch

        direct = analyze(self._tilde_system())
        assert direct.verdicts[0].name == "~NaN"
        # Process-pool path (raw worker dicts, no JSON in between) ...
        (pooled,) = analyze_batch([self._tilde_system()], jobs=2)
        assert pooled.verdicts[0].name == "~NaN"
        assert pooled.canonical_json() == direct.canonical_json()
        # ... and the chunk-cache path (encode -> decode round trip).
        (cached,) = analyze_batch(
            [self._tilde_system()], jobs=1, cache_dir=str(tmp_path)
        )
        assert cached.verdicts[0].name == "~NaN"
        assert cached.canonical_json() == direct.canonical_json()

    def test_tilde_names_survive_write_load(self, tmp_path):
        report = analyze(self._tilde_system())
        path = tmp_path / "r.json"
        report.write(str(path))
        assert json.loads(path.read_text())["tasks"][0]["name"] == "~~NaN"
        reloaded = AnalysisReport.load(str(path))
        assert reloaded.verdicts[0].name == "~NaN"
        assert reloaded.canonical_json() == report.canonical_json()

    def test_raw_dict_round_trip_is_verbatim(self):
        report = analyze(self._tilde_system())
        rebuilt = AnalysisReport.from_dict(report.to_dict())
        assert rebuilt.verdicts[0].name == "~NaN"
        assert rebuilt.canonical_json() == report.canonical_json()


class TestModelInputValidation:
    """Schema-boundary rejections added for the serve layer (PR 5)."""

    def test_non_list_tasks_is_model_error(self):
        with pytest.raises(ModelError, match="tasks"):
            ControlTaskSystem.from_dict({"name": "x", "tasks": 42})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["period", "wcet", "bcet"])
    def test_non_finite_numerics_are_model_errors(self, field, bad):
        entry = {"name": "t", "period": 1.0, "wcet": 0.1}
        entry[field] = bad
        with pytest.raises(ModelError, match="finite"):
            ControlTaskSystem.from_dict({"name": "x", "tasks": [entry]})

    @pytest.mark.parametrize("coeff", ["a", "b"])
    def test_non_finite_stability_coefficients_are_model_errors(self, coeff):
        stability = {"a": 1.2, "b": 0.01}
        stability[coeff] = float("inf")
        with pytest.raises(ModelError, match="finite"):
            ControlTaskSystem.from_dict(
                {
                    "name": "x",
                    "tasks": [
                        {
                            "name": "t",
                            "period": 1.0,
                            "wcet": 0.1,
                            "stability": stability,
                        }
                    ],
                }
            )
