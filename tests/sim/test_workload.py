"""Tests of the execution-time models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.rta.taskset import Task
from repro.sim.workload import (
    BestCaseExecution,
    ConstantExecution,
    UniformExecution,
    WorstCaseExecution,
    per_task_execution,
)


@pytest.fixture
def task():
    return Task(name="t", period=10.0, wcet=3.0, bcet=1.0)


class TestBasicModels:
    def test_worst_case(self, task, rng):
        assert WorstCaseExecution().sample(task, 0, rng) == pytest.approx(3.0)

    def test_best_case(self, task, rng):
        assert BestCaseExecution().sample(task, 0, rng) == pytest.approx(1.0)

    def test_constant_within_bounds(self, task, rng):
        assert ConstantExecution(2.0).sample(task, 0, rng) == pytest.approx(2.0)

    def test_constant_outside_bounds_rejected(self, task, rng):
        with pytest.raises(ModelError):
            ConstantExecution(5.0).sample(task, 0, rng)

    def test_uniform_within_bounds(self, task, rng):
        samples = [UniformExecution().sample(task, k, rng) for k in range(200)]
        assert all(1.0 <= s <= 3.0 for s in samples)
        assert np.std(samples) > 0.1  # genuinely random

    def test_uniform_degenerate_interval(self, rng):
        fixed = Task(name="f", period=1.0, wcet=0.5, bcet=0.5)
        assert UniformExecution().sample(fixed, 0, rng) == pytest.approx(0.5)


_TIMES = st.floats(
    min_value=0.0, max_value=1e300, exclude_min=True, allow_nan=False
)


class TestUniformDrawIdentity:
    """``UniformExecution`` computes ``Generator.uniform``'s formula
    itself; these pin that it is the same draw, bit for bit, at the same
    stream position.  A numpy build that fused ``low + range * u`` into
    one FMA would fail here."""

    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**64 - 1),
        times=st.tuples(_TIMES, _TIMES).filter(lambda pair: pair[0] != pair[1]),
        draws=st.integers(1, 4),
    )
    def test_matches_generator_uniform_bit_for_bit(self, seed, times, draws):
        bcet, wcet = sorted(times)
        task = Task(name="t", period=wcet, wcet=wcet, bcet=bcet)
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for k in range(draws):
            got = UniformExecution().sample(task, k, rng)
            want = float(twin.uniform(bcet, wcet))
            assert type(got) is float
            assert got.hex() == want.hex()
        # The same stream position: the next draws agree.
        assert rng.random() == twin.random()

    @given(seed=st.integers(0, 2**64 - 1), value=_TIMES)
    def test_degenerate_interval_draws_nothing(self, seed, value):
        task = Task(name="f", period=value, wcet=value, bcet=value)
        rng, untouched = np.random.default_rng(seed), np.random.default_rng(seed)
        assert UniformExecution().sample(task, 0, rng) == value
        assert rng.random() == untouched.random()


class TestPerTask:
    def test_routes_by_name(self, task, rng):
        other = Task(name="o", period=5.0, wcet=2.0, bcet=0.5)
        model = per_task_execution(
            {"t": BestCaseExecution()}, default=WorstCaseExecution()
        )
        assert model.sample(task, 0, rng) == pytest.approx(1.0)
        assert model.sample(other, 0, rng) == pytest.approx(2.0)

    def test_default_default_is_worst_case(self, task, rng):
        model = per_task_execution({})
        assert model.sample(task, 0, rng) == pytest.approx(3.0)
