"""Tests of the sweep executor: determinism, caching, failure handling."""

from __future__ import annotations

import json
import os

import pytest

from repro.exec import ExecError
from repro.sweep import SweepError, SweepResult, SweepSpec, run_sweep
from repro.sweep._testing import (
    failing_worker,
    seeded_draw_worker,
    square_worker,
)

pytestmark = pytest.mark.sweep


def _draw_spec(n=23, seed=7, chunk_size=5, name="draws"):
    return SweepSpec(
        name=name,
        worker=seeded_draw_worker,
        items=tuple({"index": i} for i in range(n)),
        seed=seed,
        chunk_size=chunk_size,
    )


class TestDeterminism:
    def test_jobs_1_vs_jobs_n_byte_identical(self):
        spec = _draw_spec()
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=3)
        assert serial.canonical_json() == parallel.canonical_json()
        assert serial.canonical_sha256() == parallel.canonical_sha256()

    def test_chunk_boundary_seeding(self):
        """Per-item seeding makes records independent of the chunking."""
        draws_by_chunking = []
        for chunk_size in (1, 4, 23):
            result = run_sweep(_draw_spec(chunk_size=chunk_size), jobs=1)
            draws_by_chunking.append(
                [r["draw"] for r in result.canonical_records()]
            )
        assert draws_by_chunking[0] == draws_by_chunking[1]
        assert draws_by_chunking[0] == draws_by_chunking[2]

    def test_records_carry_item_order(self):
        result = run_sweep(_draw_spec(chunk_size=4), jobs=2)
        assert [r["i"] for r in result.canonical_records()] == list(range(23))

    def test_different_seed_changes_draws(self):
        a = run_sweep(_draw_spec(seed=7), jobs=1)
        b = run_sweep(_draw_spec(seed=8), jobs=1)
        assert a.canonical_json() != b.canonical_json()


class TestCacheResume:
    def test_resume_reuses_chunks(self, tmp_path):
        spec = _draw_spec()
        cold = run_sweep(spec, jobs=1, cache_dir=str(tmp_path))
        assert cold.meta["cache_hits"] == 0
        warm = run_sweep(spec, jobs=1, cache_dir=str(tmp_path), resume=True)
        assert warm.meta["cache_hits"] == spec.n_chunks
        assert warm.canonical_json() == cold.canonical_json()

    def test_partial_resume_recomputes_missing_chunks(self, tmp_path):
        spec = _draw_spec()
        run_sweep(spec, jobs=1, cache_dir=str(tmp_path))
        victims = sorted(os.listdir(tmp_path))[:2]
        for name in victims:
            os.unlink(tmp_path / name)
        resumed = run_sweep(spec, jobs=1, cache_dir=str(tmp_path), resume=True)
        assert resumed.meta["cache_hits"] == spec.n_chunks - 2
        assert resumed.canonical_json() == run_sweep(spec, jobs=1).canonical_json()

    def test_fingerprint_mismatch_ignores_cache(self, tmp_path):
        run_sweep(_draw_spec(seed=7), jobs=1, cache_dir=str(tmp_path))
        other = run_sweep(
            _draw_spec(seed=8), jobs=1, cache_dir=str(tmp_path), resume=True
        )
        assert other.meta["cache_hits"] == 0

    def test_corrupt_cache_file_recomputed(self, tmp_path):
        spec = _draw_spec()
        run_sweep(spec, jobs=1, cache_dir=str(tmp_path))
        victim = sorted(os.listdir(tmp_path))[0]
        (tmp_path / victim).write_text("{truncated")
        resumed = run_sweep(spec, jobs=1, cache_dir=str(tmp_path), resume=True)
        assert resumed.meta["cache_hits"] == spec.n_chunks - 1
        assert resumed.canonical_json() == run_sweep(spec, jobs=1).canonical_json()

    def test_older_format_chunk_recomputed(self, tmp_path):
        # Format-1 chunks were written by the kernels before the v2.0.0
        # RTA contract: resume must recompute them, not trust them.
        spec = _draw_spec()
        cold = run_sweep(spec, jobs=1, cache_dir=str(tmp_path))
        victim = sorted(os.listdir(tmp_path))[0]
        data = json.loads((tmp_path / victim).read_text())
        assert data["format"] == 2
        data["format"] = 1
        for record in data["records"]:
            record["draw"] = -1.0
        (tmp_path / victim).write_text(json.dumps(data))
        resumed = run_sweep(spec, jobs=1, cache_dir=str(tmp_path), resume=True)
        assert resumed.meta["cache_hits"] == spec.n_chunks - 1
        assert resumed.canonical_json() == cold.canonical_json()

    def test_without_resume_cache_is_write_only(self, tmp_path):
        spec = _draw_spec()
        run_sweep(spec, jobs=1, cache_dir=str(tmp_path))
        again = run_sweep(spec, jobs=1, cache_dir=str(tmp_path))
        assert again.meta["cache_hits"] == 0


class TestFailurePropagation:
    def _failing_spec(self, chunk_size=1):
        return SweepSpec(
            name="boom",
            worker=failing_worker,
            items=(
                {"explode": False},
                {"explode": True},
                {"explode": False},
            ),
            chunk_size=chunk_size,
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_exception_names_chunk_and_cause(self, jobs):
        with pytest.raises(SweepError, match="chunk 1.*exploded"):
            run_sweep(self._failing_spec(), jobs=jobs)

    def test_cause_is_preserved(self):
        try:
            run_sweep(self._failing_spec(), jobs=1)
        except SweepError as error:
            assert isinstance(error.__cause__, ValueError)
        else:
            pytest.fail("expected SweepError")

    def test_invalid_jobs_rejected(self):
        # resolve_jobs raises the execution plane's ExecError;
        # SweepError subclasses it, so the broad catch still works.
        with pytest.raises(ExecError, match="jobs"):
            run_sweep(self._failing_spec(), jobs=-1)


class TestResultArtifact:
    def test_roundtrip(self, tmp_path):
        result = run_sweep(_draw_spec(), jobs=1)
        path = tmp_path / "sweep.json"
        result.write(str(path))
        loaded = SweepResult.load(str(path))
        assert loaded.canonical_json() == result.canonical_json()
        assert loaded.meta["jobs"] == 1

    def test_volatile_keys_stripped_from_canonical(self):
        spec = SweepSpec(
            name="vol",
            worker=square_worker,
            items=tuple({"value": i} for i in range(3)),
            volatile_keys=("value",),
        )
        result = run_sweep(spec, jobs=1)
        assert all("value" not in r for r in result.canonical_records())
        # ... but the artifact itself keeps them.
        assert all("value" in r for r in result.to_dict()["records"])

    def test_json_params_recorded_in_meta(self):
        spec = SweepSpec(
            name="p",
            worker=square_worker,
            items=tuple({"value": i} for i in range(2)),
            params={"offset": 3},
        )
        result = run_sweep(spec, jobs=1)
        assert result.meta["params"] == {"offset": 3}
        assert result.records[0]["value"] == 3  # offset applied


class TestExperimentDeterminism:
    """The acceptance-level property: real sweeps, jobs 1 vs jobs 4."""

    @pytest.mark.slow
    def test_census_byte_identical_across_jobs(self):
        from repro.experiments.census import sweep_spec

        spec = sweep_spec(task_counts=(4,), benchmarks=8, chunk_size=2)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=4)
        assert serial.canonical_json() == parallel.canonical_json()

    @pytest.mark.slow
    def test_table1_byte_identical_across_jobs(self):
        from repro.experiments.table1 import sweep_spec

        spec = sweep_spec(task_counts=(4, 8), benchmarks=6, chunk_size=3)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=4)
        assert serial.canonical_json() == parallel.canonical_json()

    @pytest.mark.slow
    def test_fig5_byte_identical_across_jobs(self):
        from repro.experiments.fig5 import sweep_spec

        spec = sweep_spec(task_counts=(4, 6), benchmarks=4, chunk_size=2)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=4)
        assert serial.canonical_json() == parallel.canonical_json()
        # wall-clock samples are volatile, counts are not
        assert "bt_seconds" not in serial.canonical_records()[0]
        assert "bt_evaluations" in serial.canonical_records()[0]


class TestCorruptedCacheResume:
    """Resume semantics: any damaged cache file recomputes, never crashes.

    The truncated-file case was covered before PR 5; these pin the
    valid-JSON-wrong-shape corruptions that used to raise (KeyError /
    AttributeError) out of ``_load_cached_chunk``.
    """

    @pytest.mark.parametrize(
        "payload",
        [
            "[1, 2, 3]",  # valid JSON, not an object
            '"just a string"',
            "null",
            json.dumps({"format": 1}),  # object, fingerprint/records missing
            json.dumps({"format": 1, "fingerprint": "x", "chunk": 0}),
            json.dumps(
                {"format": 1, "fingerprint": "x", "chunk": 0, "records": "no"}
            ),
        ],
        ids=["list", "string", "null", "bare-format", "no-records", "bad-records"],
    )
    def test_wrong_shape_cache_file_recomputed(self, tmp_path, payload):
        spec = _draw_spec()
        run_sweep(spec, jobs=1, cache_dir=str(tmp_path))
        victim = sorted(
            name for name in os.listdir(tmp_path) if name.endswith(".json")
        )[0]
        (tmp_path / victim).write_text(payload)
        resumed = run_sweep(spec, jobs=1, cache_dir=str(tmp_path), resume=True)
        assert resumed.meta["cache_hits"] == spec.n_chunks - 1
        assert resumed.canonical_json() == run_sweep(spec, jobs=1).canonical_json()

    def test_records_with_non_dict_entries_recomputed(self, tmp_path):
        spec = _draw_spec()
        run_sweep(spec, jobs=1, cache_dir=str(tmp_path))
        victim = sorted(
            name for name in os.listdir(tmp_path) if name.endswith(".json")
        )[0]
        data = json.loads((tmp_path / victim).read_text())
        data["records"] = [1, 2, 3]
        (tmp_path / victim).write_text(json.dumps(data))
        resumed = run_sweep(spec, jobs=1, cache_dir=str(tmp_path), resume=True)
        assert resumed.meta["cache_hits"] == spec.n_chunks - 1
        assert resumed.canonical_json() == run_sweep(spec, jobs=1).canonical_json()


class TestSentinelStringsThroughChunkCache:
    """Genuine sentinel-spelled record strings survive cache round trips."""

    def test_colliding_strings_survive_resume(self, tmp_path):
        from repro.sweep._testing import sentinel_string_worker

        spec = SweepSpec(
            name="sentinels",
            worker=sentinel_string_worker,
            items=tuple({"index": i} for i in range(4)),
            chunk_size=2,
        )
        cold = run_sweep(spec, jobs=1, cache_dir=str(tmp_path))
        warm = run_sweep(spec, jobs=1, cache_dir=str(tmp_path), resume=True)
        assert warm.meta["cache_hits"] == spec.n_chunks
        for result in (cold, warm):
            record = result.canonical_records()[0]
            assert record["label"] == "NaN"  # a *string*, not a float
            assert record["tilded"] == "~Infinity"
            assert record["margin"] != record["margin"]  # a real nan float
        assert warm.canonical_json() == cold.canonical_json()

    def test_colliding_strings_survive_artifact_io(self, tmp_path):
        from repro.sweep._testing import sentinel_string_worker

        spec = SweepSpec(
            name="sentinels",
            worker=sentinel_string_worker,
            items=tuple({"index": i} for i in range(2)),
        )
        result = run_sweep(spec, jobs=1)
        path = tmp_path / "artifact.json"
        result.write(str(path))
        loaded = SweepResult.load(str(path))
        assert loaded.canonical_json() == result.canonical_json()
        assert loaded.records[0]["label"] == "NaN"
