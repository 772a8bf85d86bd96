"""Once-per-sweep resolution of the stability-bound table.

On a multi-worker backend, ``run_sweep`` lists the bound keys its
pending items will look up, computes the missing ones once as a plan
split across the workers, and ships them with every chunk call.  These
tests pin the two halves of that contract: the declared keys are exactly
the keys the workers look up, and a pool run computes each of them once
in total -- none in the chunk calls -- without changing a record.
"""

from __future__ import annotations

import pytest

from repro.benchgen.taskgen import BenchmarkConfig
from repro.exec import PoolBackend
from repro.experiments import assign, census, fig5, table1
from repro.jittermargin import linearbound
from repro.sweep import SweepError, run_sweep

pytestmark = pytest.mark.sweep


def _declared(spec):
    return set(spec.bound_keys(list(spec.items), spec.params, spec.seed))


def _small_census(**overrides):
    options = dict(task_counts=(3, 5), benchmarks=3, seed=77, chunk_size=2)
    options.update(overrides)
    return census.sweep_spec(**options)


class TestDeclaredKeys:
    """The declared key set equals the set of keys the items look up."""

    @pytest.mark.parametrize(
        "spec",
        [
            _small_census(),
            _small_census(
                config=BenchmarkConfig(
                    plant_names=("dc_servo", "integrator", "inverted_pendulum"),
                    utilization_range=(0.4, 0.5),
                    log_uniform_periods=False,
                )
            ),
            table1.sweep_spec(task_counts=(4, 6), benchmarks=3, seed=5),
            assign.sweep_spec(
                task_counts=(4,), benchmarks=3, seed=9,
                algorithms=("audsley", "backtracking"),
            ),
            fig5.sweep_spec(task_counts=(4, 6), benchmarks=2, seed=13),
        ],
        ids=["census", "census-custom-config", "table1", "assign", "fig5"],
    )
    def test_declared_keys_equal_serial_lookups(self, spec, monkeypatch):
        # Every cached ``stability_bound_for_plant`` lookup goes through
        # ``_cached_bound`` with its key; record them on a serial run.
        looked_up = []
        table = linearbound._cached_bound

        def recording(*key):
            looked_up.append(key)
            return table(*key)

        monkeypatch.setattr(linearbound, "_cached_bound", recording)
        for item in spec.items:
            spec.worker(item, spec.params, spec.seed)
        assert looked_up
        assert _declared(spec) == set(looked_up)


class TestPoolResolution:
    def test_pool_census_computes_each_declared_key_once(self, cold_bound_table):
        spec = _small_census()
        serial = run_sweep(spec, jobs=1)
        assert serial.meta["bounds"]["declared"] == 0  # no up-front step
        keys = _declared(spec)
        assert serial.meta["bounds"]["chunk_misses"] == len(keys)

        linearbound.BOUND_TABLE.cache_clear()
        backend = PoolBackend(2, memo_entries=0)  # workers fork cold too
        try:
            misses = linearbound.BOUND_TABLE.cache_info().misses
            pooled = run_sweep(spec, backend=backend)
            parent_misses = linearbound.BOUND_TABLE.cache_info().misses - misses
        finally:
            backend.close()

        bounds = pooled.meta["bounds"]
        assert bounds["declared"] == bounds["computed"] == len(keys)
        assert bounds["workers"] == 2
        assert bounds["chunk_misses"] == 0
        assert parent_misses == 0
        assert set(linearbound.BOUND_TABLE.held(keys)) == keys
        assert pooled.records == serial.records
        assert pooled.canonical_sha256() == serial.canonical_sha256()

    def test_pool_forked_before_the_parent_warmed_never_recomputes(
        self, cold_bound_table
    ):
        backend = PoolBackend(2, memo_entries=0)  # workers fork cold
        try:
            spec = _small_census(seed=78)
            serial = run_sweep(spec, jobs=1)  # only the parent warms up
            pooled = run_sweep(spec, backend=backend)
        finally:
            backend.close()
        bounds = pooled.meta["bounds"]
        assert bounds["declared"] == len(_declared(spec))
        assert bounds["computed"] == 0
        assert bounds["chunk_misses"] == 0
        assert pooled.canonical_sha256() == serial.canonical_sha256()

    def test_only_pending_chunks_declare_keys(self, tmp_path):
        spec = _small_census(seed=79)
        cache = tmp_path / "cache"
        run_sweep(spec, jobs=1, cache_dir=str(cache))
        (lost,) = cache.glob("*-chunk00000.json")
        lost.unlink()
        backend = PoolBackend(2, memo_entries=0)
        try:
            resumed = run_sweep(
                spec, backend=backend, cache_dir=str(cache), resume=True
            )
        finally:
            backend.close()
        first_chunk = [item for _, item in next(spec.chunks())]
        assert resumed.meta["cache_hits"] == spec.n_chunks - 1
        assert resumed.meta["bounds"]["declared"] == len(
            set(spec.bound_keys(first_chunk, spec.params, spec.seed))
        )

    def test_failing_draw_is_reported_by_its_chunk(self):
        spec = _small_census(config=BenchmarkConfig(plant_names=("no_such_plant",)))
        backend = PoolBackend(2, memo_entries=0)
        try:
            with pytest.raises(SweepError, match=r"chunk \d+ failed.*no_such_plant"):
                run_sweep(spec, backend=backend)
        finally:
            backend.close()
