"""Tests of the exact worst-case response-time analysis (eq. (3))."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ScheduleError
from repro.rta.taskset import Task
from repro.rta.wcrt import guarded_ceil, worst_case_response_time


def _task(name, period, wcet, bcet=None):
    return Task(name=name, period=period, wcet=wcet, bcet=bcet)


class TestGuardedCeil:
    def test_plain_values(self):
        assert guarded_ceil(1.2) == 2
        assert guarded_ceil(3.0) == 3
        assert guarded_ceil(0.0) == 0

    def test_boundary_noise_is_absorbed(self):
        assert guarded_ceil(2.0 + 1e-13) == 2
        assert guarded_ceil(2.0 - 1e-13) == 2

    def test_real_excess_still_ceils(self):
        assert guarded_ceil(2.0 + 1e-6) == 3

    def test_positive_quotient_never_rounds_to_zero(self):
        # Inside the guard band of zero: an interferer whose period is
        # >= 1e9 x the response still releases its critical-instant job.
        assert guarded_ceil(1e-12) == 1
        assert guarded_ceil(1e-10) == 1
        assert guarded_ceil(1e-9) == 1


class TestWcrt:
    def test_no_interference(self):
        task = _task("t", 10.0, 3.0)
        assert worst_case_response_time(task, []) == pytest.approx(3.0)

    def test_textbook_example(self):
        # Classic: C=(1,2,3), T=(4,8,16) -> R3 = 3 + 2*1 + 1*2... iterate.
        hi = _task("hi", 4.0, 1.0)
        me = _task("me", 8.0, 2.0)
        lo = _task("lo", 16.0, 3.0)
        assert worst_case_response_time(me, [hi]) == pytest.approx(3.0)
        # lo: R = 3 + ceil(R/4)*1 + ceil(R/8)*2; fixed point R = 8... check:
        # R=8: 3 + 2*1 + 1*2 = 7; R=7: 3+2+2=7. Fixed point 7.
        assert worst_case_response_time(lo, [hi, me]) == pytest.approx(7.0)

    def test_exceeds_limit_gives_inf(self):
        hi = _task("hi", 2.0, 1.9)
        lo = _task("lo", 100.0, 10.0)
        assert worst_case_response_time(lo, [hi], limit=100.0) == float("inf")

    def test_saturated_interference_without_limit_raises(self):
        hi = _task("hi", 1.0, 1.0)
        lo = _task("lo", 100.0, 1.0)
        with pytest.raises(ScheduleError):
            worst_case_response_time(lo, [hi])

    def test_saturated_interference_under_finite_limit_is_inf(self):
        # 1e5 hp jobs fit before the limit: iterating would run out of
        # steps long before crossing it.
        hi = _task("hi", 0.001, 0.001)
        lo = _task("lo", 100.0, 0.0001)
        assert worst_case_response_time(lo, [hi], limit=100.0) == float("inf")

    def test_very_slow_interferer_counts_one_job(self):
        # wcet / hp period = 1e-9: the first iterate holds the whole hp
        # job, past a 0.4 s deadline and exactly 0.501 s below 1.0 s.
        huge = _task("huge", 1e6, 0.5)
        fast = _task("fast", 1.0, 0.001)
        assert worst_case_response_time(fast, [huge], limit=0.4) == float("inf")
        assert worst_case_response_time(fast, [huge], limit=1.0) == 0.501

    def test_exact_boundary_fit(self):
        # Interferer consumes exactly the first half of each period.
        hi = _task("hi", 2.0, 1.0)
        lo = _task("lo", 8.0, 2.0)
        # R = 2 + ceil(R/2)*1: R=4: 2+2=4. Exact fixed point at 4.
        assert worst_case_response_time(lo, [hi]) == pytest.approx(4.0)

    @given(
        st.floats(0.1, 5.0),
        st.floats(0.01, 0.9),
        st.floats(0.01, 0.9),
    )
    def test_monotone_in_own_wcet(self, period_scale, u_hi, frac):
        # WCRT is monotone: larger own WCET, larger response time.
        hi = _task("hi", 2.0 * period_scale, u_hi * 2.0 * period_scale * 0.4)
        small = _task("s", 20.0 * period_scale, frac * period_scale)
        large = _task(
            "l", 20.0 * period_scale, min(frac * period_scale * 1.5, 20.0 * period_scale)
        )
        r_small = worst_case_response_time(small, [hi], limit=1e9)
        r_large = worst_case_response_time(large, [hi], limit=1e9)
        assert r_large >= r_small - 1e-9

    @given(st.floats(0.05, 0.45), st.floats(0.05, 0.45))
    def test_adding_interferer_never_helps(self, u1, u2):
        # WCRT monotonicity in the hp-set (this property DOES hold; the
        # paper's anomalies live in the jitter, not in R^w alone).
        hi1 = _task("h1", 3.0, 3.0 * u1)
        hi2 = _task("h2", 7.0, 7.0 * u2)
        task = _task("t", 50.0, 2.0)
        alone = worst_case_response_time(task, [hi1], limit=1e9)
        both = worst_case_response_time(task, [hi1, hi2], limit=1e9)
        assert both >= alone - 1e-9
