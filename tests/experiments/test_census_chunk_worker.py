"""The census chunk worker: one detector stack per sweep chunk.

Its records must equal the per-item worker's, an error anywhere in a
chunk must surface as the per-item path's error, and with the stacking
gate out of reach every detector row must run the record kernel.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro.anomalies import detectors
from repro.anomalies.census import _assigned_benchmark
from repro.benchgen.taskgen import BenchmarkConfig
from repro.errors import ScheduleError
from repro.experiments.census import (
    _census_chunk_worker,
    _census_worker,
    sweep_spec,
)
from repro.obs.metrics import default_registry
from repro.rta import popbatch
from repro.sweep import SweepError, run_sweep
from tests.anomalies import _list_detectors as reference

#: Utilisations high enough that the backtracking search fails on some
#: sets of every size: at seed 7, items (4, 7), (8, 3), (8, 5) and
#: (12, 2) are infeasible.
_CONFIG = BenchmarkConfig(utilization_range=(0.75, 0.95))
_SEED = 7
_ITEMS = [{"n": n, "index": index} for index in range(2, 8) for n in (4, 8, 12)]


def _per_item(items, params, seed):
    return [_census_worker(item, params, seed) for item in items]


def _feasible_sets():
    assigned = [
        _assigned_benchmark(item["n"], item["index"], _SEED, _CONFIG)
        for item in _ITEMS
    ]
    return [taskset for taskset in assigned if taskset is not None]


def _tier_count(tier):
    return default_registry().counter(
        "repro_kernel_tier_total", labels=("tier",)
    ).value(tier=tier)


class TestCensusChunkWorker:
    def test_records_equal_per_item_worker(self):
        params = {"config": _CONFIG}
        records = _census_chunk_worker(_ITEMS, params, _SEED)
        assert records == _per_item(_ITEMS, params, _SEED)
        feasible = [record["feasible"] for record in records]
        assert not all(feasible) and any(feasible)
        assert {r["n"] for r in records if not r["feasible"]} == {4, 8, 12}

    def test_default_spec_uses_the_chunk_worker(self):
        spec = sweep_spec(benchmarks=2)
        assert spec.chunk_worker is _census_chunk_worker
        # Not part of the fingerprint: cached chunks stay valid.
        assert spec.fingerprint() == dataclasses.replace(
            spec, chunk_worker=None
        ).fingerprint()

    def test_error_in_one_item_reports_the_per_item_error(
        self, monkeypatch
    ):
        target = _assigned_benchmark(8, 2, _SEED, _CONFIG)
        detect = detectors._detect

        def failing(tasksets, *args, **kwargs):
            for taskset in tasksets:
                if [t.wcet for t in taskset] == [t.wcet for t in target]:
                    raise ScheduleError(
                        f"injected among {len(tasksets)} task sets"
                    )
            return detect(tasksets, *args, **kwargs)

        monkeypatch.setattr(detectors, "_detect", failing)
        spec = dataclasses.replace(
            sweep_spec(benchmarks=1, seed=_SEED, config=_CONFIG),
            items=tuple(_ITEMS),
        )
        causes = []
        for chunk_worker in (spec.chunk_worker, None):
            with pytest.raises(SweepError) as failure:
                run_sweep(dataclasses.replace(spec, chunk_worker=chunk_worker))
            cause = failure.value.__cause__
            causes.append((type(cause), str(cause)))
        assert causes[0] == causes[1] == (
            ScheduleError, "injected among 1 task sets"
        )

    def test_forced_scalar_lane_runs_every_row_on_the_record_kernel(
        self, monkeypatch
    ):
        tasksets = _feasible_sets()
        stacked = detectors.population_anomalies(tasksets)
        # The rows the detectors read: each move's after row plus one
        # before row per observed task -- the distinct problems the
        # list-built detectors posed.
        rows = 0
        for taskset in tasksets:
            tasks = list(taskset)
            records = {t.name: reference._record(t) for t in tasks}
            before_hp = reference._before_hp_map(tasks, records)
            problems = []
            for build in (
                lambda: reference._priority_raise_pairs(
                    taskset, records, before_hp
                ),
                lambda: reference._wcet_decrease_pairs(
                    taskset, 0.9, records, before_hp
                ),
                lambda: reference._period_increase_pairs(
                    taskset, 1.1, records, before_hp
                ),
            ):
                problems += build()[0]
            rows += len({(id(record), id(hp)) for record, hp in problems})
        assert rows >= popbatch.MIN_PROBLEM_POPULATION

        calls = []
        record_kernel = popbatch.evaluate_candidate

        def counted(record, hp):
            calls.append(len(hp))
            return record_kernel(record, hp)

        monkeypatch.setattr(popbatch, "MIN_PROBLEM_POPULATION", sys.maxsize)
        monkeypatch.setattr(popbatch, "evaluate_candidate", counted)
        scalar_before = _tier_count("scalar")
        popbatch_before = _tier_count("popbatch")
        forced = detectors.population_anomalies(tasksets)
        assert len(calls) == rows
        assert _tier_count("popbatch") == popbatch_before
        assert _tier_count("scalar") > scalar_before
        assert forced == stacked
