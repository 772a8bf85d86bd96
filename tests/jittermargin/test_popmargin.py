"""Equivalence tests of the population kernel tier (frequency half).

:func:`repro.jittermargin.popmargin.population_margins` promises *bit
identity* with the serial ``[jitter_margin(...) for latency in sweep]``
loop: the stacked discretisation, closed-loop assembly, and pencil
solves are slice-exact, the fast residue screen only *selects* candidate
frequencies, and every guard failure reruns the scalar path.  The suite
pins that across the plant library, and pins the stacked discretisation
(:func:`repro.lti.discretize.c2d_zoh_delay_stacks`) slice-by-slice
against the scalar :func:`~repro.lti.discretize.c2d_zoh_delay`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.lqg import design_lqg_for_plant
from repro.control.plants import PLANT_LIBRARY, get_plant
from repro.jittermargin import popmargin
from repro.jittermargin.margin import default_frequency_grid, jitter_margin
from repro.jittermargin.popmargin import (
    MIN_CURVE_POPULATION,
    population_margins,
)
from repro.lti.discretize import c2d_zoh_delay, c2d_zoh_delay_stacks

#: Plants whose LQG design is well posed at this period; the sweep spans
#: latencies beyond the stable range so NaN rows are exercised too.
_PLANTS = ["dc_servo", "integrator", "double_integrator", "harmonic_oscillator"]
_H = 0.006


def _loop(name):
    plant = get_plant(name).state_space()
    controller = design_lqg_for_plant(name, _H).controller
    return plant, controller


def _scalar_margins(plant, controller, latencies, omega):
    return np.array(
        [jitter_margin(plant, controller, _H, l, omega=omega) for l in latencies]
    )


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
