"""End-to-end integration: the full pipeline in one test module.

Each test walks a complete user story through several packages at once --
the kind of path the examples demonstrate, pinned as regression tests.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import analyze
from repro.assignment import assign_backtracking, assign_unsafe_quadratic
from repro.benchgen import generate_control_taskset
from repro.codesign import assignment_control_cost
from repro.control import design_lqg, get_plant
from repro.jittermargin import stability_bound_for_plant
from repro.rta import Task, TaskSet, response_time_interface
from repro.sim import UniformExecution, simulate_fpps
from repro.sim.cosim import cosimulate_control_task

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def designed_system():
    """Plants -> bounds -> tasks -> priorities, as in quickstart.py."""
    servo = get_plant("dc_servo")
    pend = get_plant("inverted_pendulum")
    tasks = TaskSet(
        [
            Task(
                "servo_ctl", period=0.006, wcet=0.0011, bcet=0.0004,
                stability=stability_bound_for_plant(servo, 0.006, exact_period=True),
                plant_name="dc_servo",
            ),
            Task(
                "pend_ctl", period=0.020, wcet=0.004, bcet=0.002,
                stability=stability_bound_for_plant(pend, 0.020, exact_period=True),
                plant_name="inverted_pendulum",
            ),
        ]
    )
    result = assign_backtracking(tasks)
    assert result.priorities is not None
    return result.apply_to(tasks)


class TestDesignPipeline:
    def test_assignment_is_valid(self, designed_system):
        assert analyze(designed_system).stable

    def test_interface_respects_bounds(self, designed_system):
        for name, times in response_time_interface(designed_system).items():
            bound = designed_system.by_name(name).stability
            assert bound.is_stable(times.latency, times.jitter)

    def test_quality_is_finite(self, designed_system):
        quality = assignment_control_cost(designed_system)
        assert quality.feasible
        assert all(c >= 0 for c in quality.per_task.values())

    def test_simulation_confirms_the_analysis(self, designed_system):
        interface = response_time_interface(designed_system)
        trace = simulate_fpps(
            designed_system, 2.0, execution_model=UniformExecution(), seed=3
        )
        for task in designed_system:
            worst = interface[task.name].worst
            best = interface[task.name].best
            for response in trace.response_times(task.name):
                assert best - 1e-9 <= response <= worst + 1e-9

    def test_cosimulation_stays_bounded(self, designed_system):
        plant = get_plant("dc_servo")
        q1, q12, q2 = plant.cost_weights()
        r1, r2 = plant.noise_model()
        design = design_lqg(
            plant.state_space(), 0.006, 0.0, q1, q12, q2, r1, r2
        )
        result = cosimulate_control_task(
            designed_system,
            "servo_ctl",
            plant.state_space(),
            design,
            duration=2.0,
            execution_model=UniformExecution(),
            x0=[0.01, 0.0],
        )
        assert not result.diverged


class TestGeneratedBenchmarkPipeline:
    def test_benchmark_roundtrip(self):
        """Generate -> assign (both algorithms) -> validate -> agree."""
        rng = np.random.default_rng([2024, 8, 0])
        taskset = generate_control_taskset(8, rng)
        bt = assign_backtracking(taskset)
        uq = assign_unsafe_quadratic(taskset)
        if bt.priorities is not None:
            assert analyze(bt.apply_to(taskset)).stable
            if uq.claims_valid:
                assert analyze(uq.apply_to(taskset)).stable

    def test_paper_narrative_on_one_seed_sweep(self):
        """Across a small sweep: UQ failures are rare and always caught by
        independent validation; BT never emits an invalid assignment."""
        failures = 0
        total = 40
        for index in range(total):
            rng = np.random.default_rng([31337, 5, index])
            taskset = generate_control_taskset(5, rng)
            uq = assign_unsafe_quadratic(taskset)
            uq_valid = analyze(uq.apply_to(taskset)).stable
            if not uq_valid:
                failures += 1
            bt = assign_backtracking(taskset)
            if bt.priorities is not None:
                assert analyze(bt.apply_to(taskset)).stable
        assert failures <= 0.1 * total
