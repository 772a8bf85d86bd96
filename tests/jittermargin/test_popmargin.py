"""Equivalence tests of the population kernel tier (frequency half).

:func:`repro.jittermargin.popmargin.population_margins` promises *bit
identity* with the serial ``[jitter_margin(...) for latency in sweep]``
loop: the stacked discretisation, closed-loop assembly, and pencil
solves are slice-exact, the fast ``|G| / |1 + G|`` screen only *selects*
candidate frequencies, and every guard failure reruns the scalar path.
The suite pins that across the plant library (and a near-defective
loop, where an eigenvector basis would be useless), pins the screen's
accuracy -- the premise the selection rests on -- and pins the stacked
discretisation (:func:`repro.lti.discretize.c2d_zoh_delay_stacks`)
slice-by-slice against the scalar :func:`~repro.lti.discretize
.c2d_zoh_delay`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.lqg import design_lqg, design_lqg_for_plant
from repro.control.plants import (
    BENCHMARK_PLANT_NAMES,
    PLANT_LIBRARY,
    Plant,
    get_plant,
)
from repro.jittermargin import popmargin
from repro.jittermargin.margin import (
    _negate,
    closed_loop_with_latency,
    default_frequency_grid,
    jitter_margin,
)
from repro.jittermargin.popmargin import (
    MIN_CURVE_POPULATION,
    population_margins,
)
from repro.lti.discretize import c2d_zoh_delay, c2d_zoh_delay_stacks
from repro.lti.statespace import StateSpace
from repro.lti.transferfunction import TransferFunction
from repro.obs.metrics import default_registry

#: Plants whose LQG design is well posed at this period; the sweep spans
#: latencies beyond the stable range so NaN rows are exercised too.
_PLANTS = ["dc_servo", "integrator", "double_integrator", "harmonic_oscillator"]
_H = 0.006


def _loop(name):
    plant = get_plant(name).state_space()
    controller = design_lqg_for_plant(name, _H).controller
    return plant, controller


def _scalar_margins(plant, controller, latencies, omega, h=_H):
    return np.array(
        [jitter_margin(plant, controller, h, l, omega=omega) for l in latencies]
    )


def _static_gain(gain):
    """A memoryless discrete controller ``u = gain @ y`` at period ``_H``."""
    gain = np.atleast_2d(np.asarray(gain, dtype=float))
    outputs, inputs = gain.shape
    return StateSpace(
        np.zeros((0, 0)),
        np.zeros((0, inputs)),
        np.zeros((outputs, 0)),
        gain,
        dt=_H,
    )


def _tier_count(tier):
    return default_registry().counter(
        "repro_kernel_tier_total", labels=("tier",)
    ).value(tier=tier)


def _count_scalar_runs(monkeypatch):
    """Latencies the kernel hands to the scalar ``jitter_margin``."""
    calls = []

    def counting(plant, controller, h, latency, **kwargs):
        calls.append(latency)
        return jitter_margin(plant, controller, h, latency, **kwargs)

    monkeypatch.setattr(popmargin, "jitter_margin", counting)
    return calls


def _third_order_loop():
    """``1000 / (s^3 + 2 s^2 + s)`` and its LQG controller at ``_H``."""
    plant = Plant(
        name="third_order",
        tf=TransferFunction([1000.0], [1.0, 2.0, 1.0, 0.0]),
        period_range=(0.002, 0.010),
    )
    system = plant.state_space()
    q1, q12, q2 = plant.cost_weights()
    r1, r2 = plant.noise_model()
    design = design_lqg(system, _H, 0.0, q1, q12, q2, r1, r2)
    return system, design.controller


#: The static output gain at which dc_servo's two closed-loop poles meet
#: at h = 6 ms (at 0.99701, L = 0): an eigenvector basis of that loop
#: has cond(V) ~ 6.8e13.
_DOUBLE_POLE_GAIN = 0.00024962532805452095


class TestPopulationMarginsEquivalence:
    @pytest.mark.parametrize("name", _PLANTS)
    def test_latency_sweep_matches_scalar_loop(self, name):
        plant, controller = _loop(name)
        latencies = np.linspace(0.0, 2.0 * _H, 41)
        omega = default_frequency_grid(_H)
        got = population_margins(plant, controller, _H, latencies, omega=omega)
        want = _scalar_margins(plant, controller, latencies, omega)
        # assert_array_equal is bitwise on floats and treats NaN == NaN.
        np.testing.assert_array_equal(got, want)

    def test_small_sweep_runs_scalar_tier(self):
        plant, controller = _loop("dc_servo")
        latencies = np.linspace(0.0, _H, MIN_CURVE_POPULATION - 1)
        omega = default_frequency_grid(_H)
        np.testing.assert_array_equal(
            population_margins(plant, controller, _H, latencies, omega=omega),
            _scalar_margins(plant, controller, latencies, omega),
        )

    def test_escape_hatch_matches(self, monkeypatch):
        # The size gate out of reach forces the scalar loop on a sweep
        # that would stack.
        plant, controller = _loop("dc_servo")
        latencies = np.linspace(0.0, 2.0 * _H, 17)
        omega = default_frequency_grid(_H)
        want = _scalar_margins(plant, controller, latencies, omega)
        monkeypatch.setattr(popmargin, "MIN_CURVE_POPULATION", len(latencies) + 1)
        np.testing.assert_array_equal(
            population_margins(plant, controller, _H, latencies, omega=omega),
            want,
        )

    def test_empty_sweep(self):
        plant, controller = _loop("dc_servo")
        assert population_margins(plant, controller, _H, []).size == 0


def _screen(plant, controller, h, latencies, omega):
    """The kernel's fast ``|T|`` of every latency row: ``(N, W)``."""
    grouped = c2d_zoh_delay_stacks(plant, h, latencies)
    screens = popmargin._screen_magnitudes(
        plant, _negate(controller), np.exp(1j * omega * h), grouped
    )
    rows = np.empty((len(latencies), omega.size))
    for d_steps, (indices, *_) in grouped.items():
        rows[indices] = screens[d_steps]
    return rows


def _assert_screen_accurate(plant, controller, h):
    """The screen is within 1e-9 of the exact response on stable rows.

    Over 41 latencies from 0 to ``2 h``, at every grid point, relative to
    ``max(|T|, 1)`` -- the scale of the kernel's own cross-check (only
    ``|T| > 0.5`` can constrain a margin).
    """
    latencies = np.linspace(0.0, 2.0 * h, 41)
    omega = default_frequency_grid(h)
    screened = _screen(plant, controller, h, latencies, omega)
    stable_rows = 0
    for row, latency in zip(screened, latencies):
        closed = closed_loop_with_latency(plant, controller, h, latency)
        if not closed.is_stable(margin=1e-9):
            continue
        stable_rows += 1
        exact = np.abs(closed.frequency_response(omega)[:, 0, 0])
        error = np.abs(row - exact) / np.maximum(exact, 1.0)
        assert error.max() <= 1e-9, (latency, error.max())
    assert stable_rows > 0


class TestScreen:
    def test_near_defective_loop_needs_no_scalar_rerun(self, monkeypatch):
        # A double closed-loop pole: no eigenvector basis can carry the
        # response, but the screen never forms one.
        plant = get_plant("dc_servo").state_space()
        controller = _static_gain(-_DOUBLE_POLE_GAIN)
        poles = np.linalg.eigvals(
            closed_loop_with_latency(plant, controller, _H, 0.0).a
        )
        assert abs(poles[0] - poles[1]) < 1e-6
        assert np.allclose(poles, 0.99701, atol=1e-5)
        latencies = np.linspace(0.0, 2.0 * _H, 41)
        omega = default_frequency_grid(_H)
        want = _scalar_margins(plant, controller, latencies, omega)
        assert np.isfinite(want).all()
        scalar_runs = _count_scalar_runs(monkeypatch)
        stacked, rerun = _tier_count("popmargin"), _tier_count("margin-scalar")
        got = population_margins(plant, controller, _H, latencies, omega=omega)
        np.testing.assert_array_equal(got, want)
        assert scalar_runs == []
        assert _tier_count("popmargin") - stacked == len(latencies)
        assert _tier_count("margin-scalar") == rerun

    def test_failed_cross_checks_rerun_and_are_counted(self, monkeypatch):
        # A negative band fails every fast/exact cross-check, so every
        # stable row re-runs scalar; the stack still decides the
        # unstable (NaN) rows.  The two tiers sum to the sweep.
        plant, controller = _loop("dc_servo")
        latencies = np.linspace(0.0, 2.0 * _H, 41)
        omega = default_frequency_grid(_H)
        want = _scalar_margins(plant, controller, latencies, omega)
        unstable = int(np.isnan(want).sum())
        assert 0 < unstable < len(latencies)
        monkeypatch.setattr(popmargin, "_BAND", -1.0)
        scalar_runs = _count_scalar_runs(monkeypatch)
        stacked, rerun = _tier_count("popmargin"), _tier_count("margin-scalar")
        got = population_margins(plant, controller, _H, latencies, omega=omega)
        np.testing.assert_array_equal(got, want)
        assert scalar_runs == latencies[~np.isnan(want)].tolist()
        assert _tier_count("popmargin") - stacked == unstable
        assert _tier_count("margin-scalar") - rerun == len(latencies) - unstable

    @pytest.mark.parametrize(
        "plant, controller",
        [
            # A three-state plant and its three-state LQG controller.
            _third_order_loop(),
            # A library plant whose controller, designed for a nominal
            # delay, carries the held input as a third state.
            (
                get_plant("dc_servo").state_space(),
                design_lqg_for_plant("dc_servo", _H, 0.5 * _H).controller,
            ),
        ],
        ids=["third-order-plant", "delay-designed-controller"],
    )
    def test_larger_loop_screen_needs_no_scalar_rerun(
        self, monkeypatch, plant, controller
    ):
        # More than two states takes the stacked-solve resolvent rows.
        assert max(plant.n_states, controller.n_states) == 3
        latencies = np.linspace(0.0, 2.0 * _H, 41)
        omega = default_frequency_grid(_H)
        want = _scalar_margins(plant, controller, latencies, omega)
        assert np.isfinite(want).any()
        scalar_runs = _count_scalar_runs(monkeypatch)
        got = population_margins(plant, controller, _H, latencies, omega=omega)
        np.testing.assert_array_equal(got, want)
        assert scalar_runs == []
        _assert_screen_accurate(plant, controller, _H)

    @pytest.mark.parametrize(
        "b, c, gain",
        [
            # Two outputs (position and velocity), one input.
            (None, [[1000.0, 0.0], [0.0, 1.0]], [[-0.05, -5.0]]),
            # Two inputs, one output; T is 2x2 and the margin reads T[0, 0].
            ([[0.0, 0.5], [1.0, 0.0]], None, [[-0.01], [0.0]]),
        ],
        ids=["two-output", "two-input"],
    )
    def test_multi_channel_loop_takes_scalar_loop(self, b, c, gain):
        base = get_plant("dc_servo").state_space()
        plant = StateSpace(
            base.a, base.b if b is None else b, base.c if c is None else c
        )
        controller = _static_gain(gain)
        latencies = np.linspace(0.0, 2.0 * _H, 17)
        omega = default_frequency_grid(_H)
        want = _scalar_margins(plant, controller, latencies, omega)
        assert np.isfinite(want).all()
        stacked, rerun = _tier_count("popmargin"), _tier_count("margin-scalar")
        got = population_margins(plant, controller, _H, latencies, omega=omega)
        np.testing.assert_array_equal(got, want)
        assert _tier_count("popmargin") == stacked
        assert _tier_count("margin-scalar") - rerun == len(latencies)

    @pytest.mark.parametrize("name", BENCHMARK_PLANT_NAMES)
    @settings(max_examples=5)
    @given(data=st.data())
    def test_benchmark_plant_curve_matches_scalar_loop(self, name, data):
        lo, hi = get_plant(name).period_range
        h = data.draw(st.floats(min_value=lo, max_value=hi), label="h")
        plant = get_plant(name).state_space()
        controller = design_lqg_for_plant(name, h).controller
        latencies = np.linspace(0.0, 2.0 * h, 41)
        omega = default_frequency_grid(h)
        np.testing.assert_array_equal(
            population_margins(plant, controller, h, latencies, omega=omega),
            _scalar_margins(plant, controller, latencies, omega, h),
        )

    @pytest.mark.parametrize("name", sorted(PLANT_LIBRARY))
    def test_screen_matches_exact_response(self, name):
        # The premise of the candidate selection.
        lo, hi = get_plant(name).period_range
        h = math.sqrt(lo * hi)
        plant = get_plant(name).state_space()
        controller = design_lqg_for_plant(name, h).controller
        _assert_screen_accurate(plant, controller, h)


class TestC2dZohDelayStacks:
    @pytest.mark.parametrize("name", sorted(PLANT_LIBRARY))
    def test_slices_equal_scalar_discretisation(self, name):
        # Delay-free, fractional, exact-multiple, and multi-period
        # delays: every d_steps group of the stacked call must be
        # bitwise equal to the per-delay scalar call.
        system = get_plant(name).state_space()
        h = 0.01
        delays = [0.0, 0.25 * h, 0.5 * h, h, 1.5 * h, 2.0 * h, 2.75 * h]
        grouped = c2d_zoh_delay_stacks(system, h, delays)
        covered = []
        for _, (indices, a, b, c, d) in grouped.items():
            for j, k in enumerate(indices):
                covered.append(k)
                scalar = c2d_zoh_delay(system, h, delays[k])
                assert np.array_equal(a[j], scalar.a)
                assert np.array_equal(b[j], scalar.b)
                assert np.array_equal(c[j], scalar.c)
                assert np.array_equal(d[j], scalar.d)
        assert sorted(covered) == list(range(len(delays)))

    def test_empty_delay_list(self):
        system = get_plant("dc_servo").state_space()
        assert c2d_zoh_delay_stacks(system, 0.01, []) == {}
