"""Tests of the plant-in-the-loop co-simulation."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.control.lqg import design_lqg
from repro.control.plants import get_plant
from repro.errors import ModelError
from repro.rta.taskset import Task, TaskSet
from repro.sim.cosim import cosimulate_control_task
from repro.sim.workload import UniformExecution, WorstCaseExecution


@pytest.fixture
def servo_setup(dc_servo_plant):
    h = 0.006
    q1, q12, q2 = dc_servo_plant.cost_weights()
    r1, r2 = dc_servo_plant.noise_model()
    design = design_lqg(dc_servo_plant.state_space(), h, 0.0, q1, q12, q2, r1, r2)
    return dc_servo_plant.state_space(), design, h


class TestCosimBasics:
    def test_undisturbed_loop_regulates_to_zero(self, servo_setup):
        plant, design, h = servo_setup
        ts = TaskSet([Task(name="ctl", period=h, wcet=1e-4, bcet=1e-4, priority=1)])
        result = cosimulate_control_task(
            ts, "ctl", plant, design, 3.0,
            execution_model=WorstCaseExecution(), x0=[0.01, 0.0],
        )
        assert not result.diverged
        assert abs(result.outputs[-1]) < abs(result.outputs[0])

    def test_sample_and_actuation_counts(self, servo_setup):
        plant, design, h = servo_setup
        ts = TaskSet([Task(name="ctl", period=h, wcet=1e-4, bcet=1e-4, priority=1)])
        result = cosimulate_control_task(
            ts, "ctl", plant, design, 60 * h, x0=[0.01, 0.0]
        )
        assert result.sample_times.size >= 59
        assert result.actuation_times.size >= 59
        # Actuation lags each sample by the execution time.
        lags = result.actuation_times[:5] - result.sample_times[:5]
        assert np.allclose(lags, 1e-4, atol=1e-9)

    def test_super_margin_delay_destabilises(self, dc_servo_plant):
        """A constant actuation delay beyond the analysed latency budget
        physically destabilises the loop: at h = 12 ms the servo's margin
        analysis allows ~6.6 ms of latency, and a hog task imposing a
        constant 8.5 ms response time blows the trajectory up."""
        h = 0.012
        q1, q12, q2 = dc_servo_plant.cost_weights()
        r1, r2 = dc_servo_plant.noise_model()
        design = design_lqg(
            dc_servo_plant.state_space(), h, 0.0, q1, q12, q2, r1, r2
        )
        ts = TaskSet(
            [
                Task(name="hog", period=h, wcet=0.008, bcet=0.008, priority=2),
                Task(name="ctl", period=h, wcet=5e-4, bcet=5e-4, priority=1),
            ]
        )
        result = cosimulate_control_task(
            ts, "ctl", dc_servo_plant.state_space(), design, 4.0,
            execution_model=WorstCaseExecution(), x0=[0.01, 0.0],
        )
        assert result.diverged

    def test_mismatched_period_rejected(self, servo_setup):
        plant, design, h = servo_setup
        ts = TaskSet([Task(name="ctl", period=2 * h, wcet=1e-4, priority=1)])
        with pytest.raises(ModelError):
            cosimulate_control_task(ts, "ctl", plant, design, 1.0)

    def test_discrete_plant_rejected(self, servo_setup):
        plant, design, h = servo_setup
        from repro.lti.discretize import c2d_zoh

        ts = TaskSet([Task(name="ctl", period=h, wcet=1e-4, priority=1)])
        with pytest.raises(ModelError):
            cosimulate_control_task(ts, "ctl", c2d_zoh(plant, h), design, 1.0)

    def test_bad_initial_state_rejected(self, servo_setup):
        plant, design, h = servo_setup
        ts = TaskSet([Task(name="ctl", period=h, wcet=1e-4, priority=1)])
        with pytest.raises(ModelError):
            cosimulate_control_task(ts, "ctl", plant, design, 1.0, x0=[1.0])


class TestCosimGolden:
    #: sha256 over the five trajectory arrays (name, shape, raw bytes) of
    #: the jittery servo loop below, recorded with the per-interval
    #: ``expm`` stepping of v3.0.0.
    GOLDEN = "657239e411ed01ca4a96ddd58d8534ea112649a313fd75a220dbaab4afe72288"

    def test_jittery_servo_loop_arrays_are_pinned(self, servo_setup):
        plant, design, h = servo_setup
        # A hog with uniformly drawn execution times preempts the control
        # task, so the plant intervals between events all differ.
        ts = TaskSet(
            [
                Task(name="hog", period=0.004, wcet=0.0015, bcet=0.0002, priority=2),
                Task(name="ctl", period=h, wcet=5e-4, bcet=1e-4, priority=1),
            ]
        )
        result = cosimulate_control_task(
            ts, "ctl", plant, design, 1.2,
            execution_model=UniformExecution(), x0=[0.01, 0.0], seed=3,
        )
        assert result.sample_times.size == result.actuation_times.size == 200
        digest = hashlib.sha256()
        for field in (
            "sample_times", "actuation_times", "outputs", "controls", "state_norms"
        ):
            array = getattr(result, field)
            digest.update(f"{field}{array.shape}".encode())
            digest.update(array.tobytes())
        assert digest.hexdigest() == self.GOLDEN
