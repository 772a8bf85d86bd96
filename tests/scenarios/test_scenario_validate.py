"""Tests of the Monte-Carlo simulation-vs-analysis validation harness."""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from repro.scenarios import get_scenario, validate_instance, validate_scenario
from repro.scenarios.validate import (
    CELLS,
    ScenarioValidation,
    analytic_records,
    from_sweep,
    sweep_spec,
)
from repro.sweep import run_sweep

pytestmark = pytest.mark.scenario


class TestValidateInstance:
    def test_smoke_instance_confirmed_stable(self):
        spec = get_scenario("smoke_single_loop")
        record = validate_instance(spec, spec.instance(0, seed=7), horizon_periods=40)
        assert record["cell"] == "stable_confirmed"
        assert record["ok"]
        assert record["analytic_stable"]
        assert record["sim_divergent"] is False
        assert record["envelope_ok"]

    def test_deep_violation_diverges_as_predicted(self):
        spec = get_scenario("deep_violation")
        record = validate_instance(spec, spec.instance(0, seed=7))
        assert record["cell"] == "divergence_predicted"
        assert not record["analytic_stable"]
        assert record["sim_divergent"] is True
        assert record["ok"]

    def test_paper_anomaly_sits_in_the_band(self):
        spec = get_scenario("paper_priority_raise")
        record = validate_instance(spec, spec.instance(0, seed=7), horizon_periods=60)
        # The raised fixture is analytically unstable by a hair's breadth:
        # inside the declared near-boundary band, reported not failed.
        assert not record["analytic_stable"]
        assert record["near_boundary"]
        assert record["ok"]

    def test_record_is_json_serialisable(self):
        from repro.sweep.result import encode_nonfinite

        spec = get_scenario("benchmark_baseline")
        record = validate_instance(spec, spec.instance(0, seed=7), horizon_periods=40)
        json.dumps(encode_nonfinite(record), allow_nan=False)


class TestHarness:
    def test_smoke_validation_end_to_end(self):
        validation = validate_scenario(
            "smoke_single_loop", instances=3, horizon_periods=40
        )
        assert validation.ok
        assert validation.cells == {"stable_confirmed": 3}
        assert validation.n_instances == 3

    def test_report_cells_cover_all_categories(self):
        validation = validate_scenario(
            "smoke_single_loop", instances=2, horizon_periods=40
        )
        report = validation.to_report()
        assert set(report["cells"]) == set(CELLS)
        assert report["scenario"] == "smoke_single_loop"
        assert report["canonical_sha256"]

    def test_report_json_is_canonical_and_parsable(self):
        validation = validate_scenario(
            "smoke_single_loop", instances=2, horizon_periods=40
        )
        parsed = json.loads(validation.report_json())
        assert parsed["ok"] is True

    def test_write_roundtrip(self, tmp_path):
        validation = validate_scenario(
            "smoke_single_loop", instances=2, horizon_periods=40
        )
        path = tmp_path / "report.json"
        validation.write(str(path))
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(
            json.dumps(json.loads(validation.report_json()))
        )

    def test_analytic_records_cheap_path(self):
        spec = get_scenario("paper_priority_raise")
        records = analytic_records(spec, instances=2, seed=7)
        assert len(records) == 2
        assert all(not r["analytic_stable"] for r in records)

    def test_unknown_scenario_fails_fast(self):
        from repro.errors import ModelError

        with pytest.raises(ModelError, match="known scenarios"):
            sweep_spec(scenario="nope")


class TestScenarioPins:
    """Report shas pinned at v3.0.0: any change to the simulated schedule,
    the co-simulated trajectories or the analysis moves them."""

    PINS = {
        "benchmark_baseline": "473f158b93bb281b0bd7651d8457d204c30b174fd5207de3bc347befc380a56c",
        "dropped_actuations": "d456fba433e62d9904e1f200214f410246863242d39fbd4d470aecfbeeebf200",
        "interferer_clock_drift": "4e7c7f0100041589e33e387cb44ba6f1daf011c63f26130528dbb91e85738751",
        "transient_overload": "0c3b838097b9228ab58fac80a29c81469e069c5dd86435723392cd13e898797e",
    }

    #: The benchmark's own pins (``perfbench/run.py`` ``SCENARIO_PINS``,
    #: seed 7): its ``scenarios`` workload validates these two at 8
    #: instances and the default horizon, so a change that would fail the
    #: benchmark's correctness gate fails here first.
    BENCHMARK_PINS = {
        "benchmark_baseline": "056647d6344506f6799a3278b5e7dc07ef9dc3a797959370d847b120889a0380",
        "transient_overload": "589849272a015c74612eb0716a877223b16a58d2068301e4121a7b79a00f48ef",
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_report_sha_is_pinned(self, name):
        validation = validate_scenario(name, instances=2, horizon_periods=40)
        assert validation.canonical_sha256 == self.PINS[name]

    @pytest.mark.parametrize("name", sorted(BENCHMARK_PINS))
    def test_benchmark_sha_is_pinned(self, name):
        validation = validate_scenario(name, instances=8, seed=7)
        assert validation.canonical_sha256 == self.BENCHMARK_PINS[name]


def _file_sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestReportBytes:
    """Bytes of the scenario report writers, pinned at v4.0.0: the
    indented artifact of ``ScenarioValidation.write``, its compact
    ``report_json`` and the ``scenarios validate --all --out`` payload."""

    def test_write_and_report_json_bytes_are_pinned(self, tmp_path):
        validation = validate_scenario(
            "smoke_single_loop", instances=2, horizon_periods=40
        )
        validation.write(str(tmp_path / "report.json"))
        assert _file_sha(tmp_path / "report.json") == (
            "fb313c3d7215515d44c4eabaf864ac5c6516b772ea41904a57a5d76a736f3fef"
        )
        assert hashlib.sha256(validation.report_json().encode()).hexdigest() == (
            "95b4922cdac62198d2a1612ea166a607f038048e40b3361586af82ece1b93a18"
        )

    def test_sentinels_and_escapes_are_pinned(self, tmp_path):
        """Non-finite floats become sentinels; sentinel-spelled strings
        are escaped, in both the file and the compact form."""
        validation = ScenarioValidation(
            scenario="NaN",
            seed=3,
            n_instances=2,
            band=0.05,
            expectation="sound",
            cells={"optimistic": 1, "stable_confirmed": 1},
            near_boundary=1,
            disagreements=[
                {"index": 0, "cell": "optimistic", "rel_slack": -math.inf,
                 "peak": math.nan, "label": "Infinity", "x": 0.1}
            ],
            failures=[{"index": 1, "error": "-Infinity", "slack": math.inf}],
            canonical_sha256="0" * 64,
        )
        validation.write(str(tmp_path / "report.json"))
        on_disk = (tmp_path / "report.json").read_text()
        assert '"scenario": "~NaN"' in on_disk
        assert '"rel_slack": "-Infinity"' in on_disk
        assert _file_sha(tmp_path / "report.json") == (
            "1398c88dd535b80022b2a8a573330df88beb6f12345ec2625844e6ad613184f4"
        )
        assert hashlib.sha256(validation.report_json().encode()).hexdigest() == (
            "12b95239cfa3746399e61af704c5d28d27edf91851a7859361874dc7d596f376"
        )

    def test_cli_all_payload_is_pinned(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "all.json"
        code = main(
            ["scenarios", "validate", "--all", "--instances", "1",
             "--horizon-periods", "10", "--out", str(out)]
        )
        assert code == 0
        assert _file_sha(out) == (
            "a45ffc3cc8eeb0e5c5318fe24b2c1deb33d29b570b04e3e89b1edabff9b7d3cd"
        )


@pytest.mark.sweep
class TestDeterminismAcrossJobs:
    def test_report_byte_identical_jobs_1_vs_2(self):
        kwargs = dict(scenario="benchmark_baseline", instances=6, horizon_periods=50, chunk_size=2)
        serial = run_sweep(sweep_spec(**kwargs), jobs=1)
        parallel = run_sweep(sweep_spec(**kwargs), jobs=2)
        assert serial.canonical_json() == parallel.canonical_json()
        assert (
            from_sweep(serial).report_json() == from_sweep(parallel).report_json()
        )


@pytest.mark.slow
class TestRegistrySweep:
    """Full-lane acceptance: every registered scenario validates clean."""

    #: Report shas of the whole registry at ``instances=6,
    #: horizon_periods=60`` (seed 7), pinned at v3.0.0.
    REGISTRY_PINS = {
        "benchmark_baseline": "7167c09da3f2cd9fff3871d0de6ee8f3a57b3b979a446554b799e6513150cca8",
        "bursty_interference": "21d6d002ad00872bff7a3d14b33b091ad78ebca881958b245084e13773ecbf71",
        "deep_violation": "16c954c412b7353cf36fefbd708224a05b7933f67b50dfc740f6bc0219571289",
        "dropped_actuations": "8a9a6902f3e300005ddfb3004c50327a3fc18e7e84c2d4a87fd2275c89d07fef",
        "interferer_clock_drift": "7206f7a30492d0d6b7573feec26a75cf330501b7db2f6c237a27c224ed34b41c",
        "paper_priority_raise": "c7da2a2ab5e82bf5f26e84cb7f637f6d462b239120092344bd6d07653fb8ee74",
        "paper_priority_raise_searched": "0206b30cfa65fd36f3af8fa813dcbb4cfa5b43863469e200985e959de616deee",
        "priority_raise_random": "013d1c7f199c35d4d39ea46d3c9867a75215530cb73da0f8e521f87f8fb0d18d",
        "rate_monotonic_blind": "c5c698407fd1f60ca520a38388cce04ff925c7cb5e54d8f3d80a409cbb5373da",
        "searched_audsley": "22e0ac4c3e0e0d6d1c0e6c75daa6cb7eb90241cdc0e8639d3dd06ffe08e927fb",
        "searched_unsafe_quadratic": "16e5ca9ebdb88fdde3d11f531d6bd635d4a9c8c3448cd865983a4311066a2588",
        "smoke_single_loop": "ce9d16bfac1d50acbfed3d9c554bfc4dbef679e06c92d445c4700e7a06018d62",
        "transient_overload": "51c4490e4ea0385552ff2e71761b3a276be777d07759faed7952273f6e82ae1e",
        "wcet_inflation": "ad092115758e951de5e36c090af2694f37d9920d08bec13b313a685fd28d4523",
    }

    def test_whole_registry_validates(self):
        from repro.scenarios import scenario_names, validate_registry

        reports = validate_registry(instances=6, horizon_periods=60)
        assert set(reports) == set(scenario_names())
        for name, validation in reports.items():
            assert validation.ok, (
                f"{name} failed: {validation.failures}"
            )
        assert {
            name: validation.canonical_sha256 for name, validation in reports.items()
        } == self.REGISTRY_PINS

    def test_deep_violation_and_smoke_disagree_cells(self):
        deep = validate_scenario("deep_violation", instances=2)
        smoke = validate_scenario("smoke_single_loop", instances=2, horizon_periods=40)
        assert deep.cells.get("divergence_predicted") == 2
        assert smoke.cells.get("stable_confirmed") == 2
