"""Tests of the CLI wiring: ``repro <experiment>`` and ``scenarios``."""

from __future__ import annotations

import importlib
import json

import pytest

from repro.cli import main
from repro.sweep import run_sweep

#: ``repro <command>`` at a tiny size: (command, module under
#: repro.experiments, argv tail, the same options as sweep_spec keywords).
EXPERIMENT_COMMANDS = [
    ("fig2", "fig2", ["--points", "4", "--h-min", "0.05", "--h-max", "0.2"],
     {"points": 4, "h_min": 0.05, "h_max": 0.2}),
    ("fig4", "fig4", ["--points", "5", "--period", "0.006"],
     {"points": 5, "h": 0.006}),
    ("table1", "table1", ["--benchmarks", "1", "--seed", "3"],
     {"benchmarks": 1, "seed": 3}),
    ("fig5", "fig5", ["--benchmarks", "1"], {"benchmarks": 1}),
    ("census", "census", ["--benchmarks", "1"], {"benchmarks": 1}),
    ("jittercurve", "jittercurve", ["--points", "3", "--latency", "0.001"],
     {"points": 3, "latency": 0.001}),
    ("assign-suite", "assign",
     ["--benchmarks", "2", "--task-counts", "3", "4", "--exhaustive-max-n", "3"],
     {"benchmarks": 2, "task_counts": (3, 4), "exhaustive_max_n": 3}),
]


@pytest.mark.parametrize(
    "command, module_name, argv, kwargs",
    EXPERIMENT_COMMANDS,
    ids=[case[0] for case in EXPERIMENT_COMMANDS],
)
def test_experiment_command_runs_the_module_sweep(
    command, module_name, argv, kwargs, tmp_path, capsys
):
    out = tmp_path / "artifact.json"
    assert main([command, *argv, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    artifact = json.loads(out.read_text())

    module = importlib.import_module(f"repro.experiments.{module_name}")
    result = run_sweep(module.sweep_spec(**kwargs))
    assert artifact["name"] == result.name
    assert artifact["canonical_sha256"] == result.canonical_sha256()
    table = module.from_sweep(result).render()
    if command in ("fig5", "assign-suite"):
        # Their tables print wall-clock timings: compare the title only.
        table = table.splitlines()[0]
    assert printed.startswith(table + "\n")
    assert f"canonical sha256 {result.canonical_sha256()[:16]}]" in printed


# ``sweep census`` is the spelling removed in v6.0.0.
@pytest.mark.parametrize("argv", ["sweep census".split(), ["fig99"]])
def test_unknown_command_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


class TestCli:
    def test_fig4_subcommand(self, capsys):
        assert main(["fig4", "--points", "9"]) == 0
        out = capsys.readouterr().out
        assert "stability curve" in out

    def test_fig2_subcommand(self, capsys):
        assert main(["fig2", "--points", "12", "--h-min", "0.05", "--h-max", "0.2"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_table1_subcommand(self, capsys):
        assert main(["table1", "--benchmarks", "5"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_census_subcommand(self, capsys):
        assert main(["census", "--benchmarks", "5"]) == 0
        assert "census" in capsys.readouterr().out.lower()

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_jobs_flag_accepted(self, capsys):
        assert main(["table1", "--benchmarks", "3", "--jobs", "1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_jobs_auto_accepted(self, capsys):
        assert main(["table1", "--benchmarks", "3", "--jobs", "auto"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_jobs_zero_means_auto(self, capsys):
        assert main(["table1", "--benchmarks", "3", "--jobs", "0"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_jobs_garbage_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1", "--benchmarks", "3", "--jobs", "many"])
        with pytest.raises(SystemExit):
            main(["table1", "--benchmarks", "3", "--jobs", "-2"])


@pytest.mark.scenario
class TestScenariosCli:
    def test_list_shows_catalogue(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "paper_priority_raise" in out
        assert "smoke_single_loop" in out
        assert "Registered scenarios" in out

    def test_run_prints_analytic_verdicts(self, capsys):
        assert main(
            ["scenarios", "run", "paper_priority_raise", "--instances", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "UNSTABLE" in out
        assert "analytic verdict" in out

    def test_validate_smoke_scenario(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        argv = [
            "scenarios", "validate", "smoke_single_loop",
            "--instances", "2", "--horizon-periods", "40",
            "--jobs", "auto", "--out", str(out_file),
        ]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert "verdict: OK" in printed
        report = json.loads(out_file.read_text())
        assert report["ok"] is True
        assert report["cells"]["stable_confirmed"] == 2

    def test_validate_requires_name_or_all(self, capsys):
        assert main(["scenarios", "validate"]) == 2

    def test_unknown_scenario_errors(self):
        from repro.errors import ModelError

        with pytest.raises(ModelError, match="known scenarios"):
            main(["scenarios", "run", "nope"])


@pytest.mark.sweep
class TestSweepCli:
    def test_sweep_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "fig4.json"
        assert main(["fig4", "--points", "9", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "Figure 4" in printed
        assert "canonical sha256" in printed
        artifact = json.loads(out.read_text())
        assert artifact["name"] == "fig4"
        assert len(artifact["records"]) == 9
        assert artifact["canonical_sha256"]

    def test_sweep_cache_resume(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = [
            "table1", "--benchmarks", "2",
            "--cache-dir", str(cache), "--resume",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "cache hits=0" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cache hits=1" in second
