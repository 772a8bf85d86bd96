"""End-to-end CLI tests of ``python -m repro assign``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

SYSTEM = {
    "name": "cli-demo",
    "tasks": [
        {"name": "a", "period": 4.0, "wcet": 0.4, "bcet": 0.2,
         "stability": {"a": 1.0, "b": 100.0}},
        {"name": "b", "period": 8.0, "wcet": 0.8, "bcet": 0.4,
         "stability": {"a": 1.0, "b": 100.0}},
    ],
}

INFEASIBLE = {
    "name": "cli-broken",
    "tasks": [
        {"name": "x", "period": 4.0, "wcet": 2.0, "bcet": 2.0,
         "stability": {"a": 1.0, "b": 2.5}},
        {"name": "y", "period": 4.0, "wcet": 2.0, "bcet": 2.0,
         "stability": {"a": 1.0, "b": 2.5}},
    ],
}


def _write(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_assign_single_system(tmp_path, capsys):
    out = tmp_path / "outcome.json"
    code = main(["assign", _write(tmp_path, SYSTEM), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "algorithm backtracking" in stdout
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["ok"] is True
    assert payload["assignment"]["algorithm"] == "backtracking"
    assert set(payload["assignment"]["priorities"]) == {"a", "b"}
    assert payload["report"]["stable"] is True


def test_assign_explicit_algorithm(tmp_path, capsys):
    code = main(
        ["assign", _write(tmp_path, SYSTEM), "--algorithm", "audsley"]
    )
    assert code == 0
    assert "algorithm audsley" in capsys.readouterr().out


def test_assign_batch_and_jobs(tmp_path, capsys):
    out = tmp_path / "batch.json"
    model = _write(tmp_path, {"systems": [SYSTEM, dict(SYSTEM, name="two")]})
    code = main(["assign", model, "--jobs", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n_systems"] == 2
    assert [o["name"] for o in payload["outcomes"]] == ["cli-demo", "two"]


def test_assign_single_entry_batch_keeps_envelope_shape(tmp_path, capsys):
    """A batch input gets the envelope even with one system (like analyze)."""
    out = tmp_path / "one.json"
    model = _write(tmp_path, {"systems": [SYSTEM]})
    assert main(["assign", model, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n_systems"] == 1
    assert "canonical_sha256" in payload
    assert [o["name"] for o in payload["outcomes"]] == ["cli-demo"]


def test_assign_infeasible_exits_one(tmp_path, capsys):
    code = main(["assign", _write(tmp_path, INFEASIBLE)])
    assert code == 1
    assert "no valid priority assignment" in capsys.readouterr().out


def test_assign_bad_file_exits_two(tmp_path, capsys):
    code = main(["assign", str(tmp_path / "missing.json")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_assign_unknown_algorithm_exits_two(tmp_path, capsys):
    code = main(
        ["assign", _write(tmp_path, SYSTEM), "--algorithm", "quantum"]
    )
    assert code == 2
    assert "unknown assignment algorithm" in capsys.readouterr().err


@pytest.mark.sweep
def test_sweep_assign_artifact(tmp_path, capsys):
    out = tmp_path / "assign.json"
    code = main(
        [
            "assign-suite",
            "--benchmarks", "2",
            "--task-counts", "3",
            "--jobs", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["name"] == "assign"
    assert len(payload["records"]) == 2
    assert "backtracking_priorities" in payload["records"][0]
