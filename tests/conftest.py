"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# One shared profile: generous deadlines (numeric code under CI jitter),
# no flaky health checks from module-scoped fixtures.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=50,
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def dc_servo_plant():
    from repro.control.plants import get_plant

    return get_plant("dc_servo")


@pytest.fixture
def dc_servo_design(dc_servo_plant):
    """LQG design for the DC servo at the paper's Fig. 4 operating point."""
    from repro.control.lqg import design_lqg

    q1, q12, q2 = dc_servo_plant.cost_weights()
    r1, r2 = dc_servo_plant.noise_model()
    return design_lqg(
        dc_servo_plant.state_space(), 0.006, 0.0, q1, q12, q2, r1, r2
    )


@pytest.fixture
def three_task_set():
    """A small, exactly analysable task set with distinct priorities."""
    from repro.rta.taskset import Task, TaskSet

    return TaskSet(
        [
            Task(name="hi", period=4.0, wcet=1.0, bcet=0.5, priority=3),
            Task(name="me", period=8.0, wcet=2.0, bcet=1.0, priority=2),
            Task(name="lo", period=16.0, wcet=3.0, bcet=2.0, priority=1),
        ]
    )


@pytest.fixture
def cold_bound_table():
    """An empty stability-bound table for one test; entries come back after.

    Pool workers fork with the table as it is when the pool starts, so a
    test that counts which process computes each bound needs it cold.
    """
    from repro.jittermargin import linearbound

    table = linearbound.BOUND_TABLE
    saved = table.held(list(table._entries))
    table.cache_clear()
    yield
    table.install(saved.items())
