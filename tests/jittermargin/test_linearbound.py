"""Tests of the linear stability bound (eq. (5)) and its fitting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.plants import get_plant
from repro.errors import ModelError
from repro.jittermargin.curve import StabilityCurve
from repro.jittermargin.linearbound import (
    LinearStabilityBound,
    BoundTable,
    bound_key,
    compute_bounds,
    fit_linear_bound,
    stability_bound_for_plant,
)


class TestLinearStabilityBound:
    def test_constraint_check(self):
        bound = LinearStabilityBound(a=2.0, b=10.0)
        assert bound.is_stable(4.0, 3.0)       # 4 + 6 = 10 <= 10
        assert not bound.is_stable(4.0, 3.01)

    def test_slack_sign(self):
        bound = LinearStabilityBound(a=1.5, b=6.0)
        assert bound.slack(3.0, 1.0) == pytest.approx(1.5)
        assert bound.slack(6.0, 1.0) == pytest.approx(-1.5)

    def test_paper_requires_a_at_least_one(self):
        with pytest.raises(ModelError):
            LinearStabilityBound(a=0.5, b=1.0)

    def test_paper_requires_b_nonnegative(self):
        with pytest.raises(ModelError):
            LinearStabilityBound(a=1.0, b=-0.1)

    def test_never_stable_bound(self):
        bound = LinearStabilityBound(a=1.0, b=0.0)
        assert not bound.is_stable(1e-9, 0.0)
        assert bound.is_stable(0.0, 0.0)


class TestFitLinearBound:
    def test_fitted_line_is_below_curve(self):
        curve = StabilityCurve(
            h=0.01,
            latencies=np.array([0.0, 1.0, 2.0, 3.0]),
            margins=np.array([3.0, 2.2, 1.0, float("nan")]),
        )
        bound = fit_linear_bound(curve)
        assert bound.b == pytest.approx(2.0)
        for latency, margin in zip(curve.latencies, curve.margins):
            if np.isnan(margin) or latency >= bound.b:
                continue
            line = (bound.b - latency) / bound.a
            assert line <= margin + 1e-12

    def test_unstable_everywhere_gives_degenerate_bound(self):
        curve = StabilityCurve(
            h=0.01,
            latencies=np.array([0.0, 1.0]),
            margins=np.array([float("nan"), float("nan")]),
        )
        bound = fit_linear_bound(curve)
        assert bound.b == 0.0

    def test_infinite_margins_do_not_constrain_slope(self):
        curve = StabilityCurve(
            h=0.01,
            latencies=np.array([0.0, 1.0, 2.0]),
            margins=np.array([float("inf"), 0.9, 0.0]),
        )
        bound = fit_linear_bound(curve)
        assert bound.a == pytest.approx((2.0 - 1.0) / 0.9)

    def test_slope_respects_minimum_one(self):
        # A very shallow curve still produces a >= 1 (paper's convention).
        curve = StabilityCurve(
            h=0.01,
            latencies=np.array([0.0, 1.0, 2.0]),
            margins=np.array([100.0, 50.0, 0.0]),
        )
        assert fit_linear_bound(curve).a == 1.0


class TestPlantLevelBound:
    def test_dc_servo_bound_matches_fig4_ballpark(self):
        plant = get_plant("dc_servo")
        bound = stability_bound_for_plant(plant, 0.006, exact_period=True)
        # Fig. 4: a slightly above 1, latency budget around one period.
        assert 1.0 <= bound.a < 2.0
        assert 0.004 < bound.b < 0.02

    def test_bucketing_caches_nearby_periods(self):
        plant = get_plant("dc_servo")
        b1 = stability_bound_for_plant(plant, 0.00600)
        b2 = stability_bound_for_plant(plant, 0.00603)  # same 4% bucket
        assert b1 is b2  # identical cached object

    def test_exact_period_bypasses_cache(self):
        plant = get_plant("dc_servo")
        b1 = stability_bound_for_plant(plant, 0.006, exact_period=True)
        b2 = stability_bound_for_plant(plant, 0.006, exact_period=True)
        assert b1 is not b2
        assert b1.a == pytest.approx(b2.a)

    def test_rejects_nonpositive_period(self):
        plant = get_plant("dc_servo")
        with pytest.raises(ModelError):
            stability_bound_for_plant(plant, 0.0)


class TestBoundTable:
    """The installable, LRU-bounded table behind cached bound lookups."""

    def test_compute_bounds_equals_a_table_miss(self):
        plant = get_plant("dc_servo")
        key = bound_key(plant, 0.006)
        ((computed_key, computed),) = compute_bounds([key])
        assert computed_key == key
        assert computed == BoundTable(4)(*key)

    def test_install_keeps_held_objects_and_counts_nothing(self):
        table = BoundTable(4)
        first = LinearStabilityBound(a=1.0, b=0.1)
        table.install([(("p", 0.1, 0.0), first)])
        table.install([(("p", 0.1, 0.0), LinearStabilityBound(a=1.0, b=0.1))])
        assert table.held([("p", 0.1, 0.0), ("q", 0.1, 0.0)]) == {
            ("p", 0.1, 0.0): first
        }
        assert table(*("p", 0.1, 0.0)) is first
        info = table.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 0, 1)

    def test_evicts_least_recently_used_beyond_maxsize(self):
        table = BoundTable(2)
        bound = LinearStabilityBound(a=1.0, b=0.1)
        table.install([(("a", 1.0, 0.0), bound), (("b", 1.0, 0.0), bound)])
        table("a", 1.0, 0.0)  # "b" is now the least recently used
        table.install([(("c", 1.0, 0.0), bound)])
        assert set(table.held([("a", 1.0, 0.0), ("b", 1.0, 0.0), ("c", 1.0, 0.0)])) == {
            ("a", 1.0, 0.0),
            ("c", 1.0, 0.0),
        }

    def test_concurrent_lookups_and_installs_lose_no_update(self):
        import sys
        import threading

        plant = get_plant("integrator")
        keys = [bound_key(plant, h) for h in (0.01, 0.02, 0.04)]
        installed = compute_bounds(keys[:1])
        table = BoundTable(8)
        seen = {key: set() for key in keys}
        calls = 40

        def caller():
            for i in range(calls):
                key = keys[i % len(keys)]
                seen[key].add(id(table(*key)))
                table.install(installed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        info = table.cache_info()
        assert info.hits + info.misses == 8 * calls
        # Every caller got the one object the table keeps for its key.
        assert all(len(ids) == 1 for ids in seen.values())
