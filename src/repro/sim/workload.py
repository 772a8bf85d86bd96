"""Execution-time models for the scheduler simulator.

The paper's task model bounds each task's execution time to
``[c^b_i, c^w_i]``; which value each *job* actually takes is what creates
response-time jitter.  An :class:`ExecutionTimeModel` decides that value
per job.  The extremal models are the important ones analytically:

* all-worst-case drives every response time toward ``R^w`` (synchronous
  release gives exactly the critical instant of eq. (3));
* the task under analysis at best case with minimal interference
  approaches ``R^b``.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Optional

import numpy as np

from repro.errors import ModelError
from repro.rta.taskset import Task


class ExecutionTimeModel(abc.ABC):
    """Strategy deciding the execution time of each job."""

    @abc.abstractmethod
    def sample(self, task: Task, job_index: int, rng: np.random.Generator) -> float:
        """Execution time of job ``job_index`` of ``task`` (seconds)."""

    def _validate(self, task: Task, value: float) -> float:
        if not (task.bcet - 1e-12 <= value <= task.wcet + 1e-12):
            raise ModelError(
                f"execution model produced {value} outside "
                f"[{task.bcet}, {task.wcet}] for task {task.name!r}"
            )
        return min(max(value, task.bcet), task.wcet)


class WorstCaseExecution(ExecutionTimeModel):
    """Every job takes ``c^w`` -- the analysis-side worst case."""

    def sample(self, task: Task, job_index: int, rng: np.random.Generator) -> float:
        return task.wcet


class BestCaseExecution(ExecutionTimeModel):
    """Every job takes ``c^b``."""

    def sample(self, task: Task, job_index: int, rng: np.random.Generator) -> float:
        return task.bcet


class ConstantExecution(ExecutionTimeModel):
    """A fixed execution time within ``[c^b, c^w]`` for every job."""

    def __init__(self, value: float):
        self._value = value

    def sample(self, task: Task, job_index: int, rng: np.random.Generator) -> float:
        return self._validate(task, self._value)


class UniformExecution(ExecutionTimeModel):
    """Execution times drawn uniformly from ``[c^b, c^w]`` per job."""

    def sample(self, task: Task, job_index: int, rng: np.random.Generator) -> float:
        bcet, wcet = task.bcet, task.wcet
        if wcet == bcet:
            return wcet
        # ``rng.uniform(bcet, wcet)``'s own formula on the same single
        # double, bit for bit, without the call's argument handling.
        return bcet + (wcet - bcet) * rng.random()


class BurstyExecution(ExecutionTimeModel):
    """Periodic bursts: WCET every ``burst_every``-th job, BCET otherwise.

    Models bursty interference (interrupt storms, cache-cold activations):
    the task is cheap most of the time but periodically hits its worst
    case.  The analysis side still charges WCET on every activation, so
    bursty behaviour within ``[c^b, c^w]`` keeps analytic verdicts sound.
    """

    def __init__(self, burst_every: int, phase: int = 0):
        if burst_every < 1:
            raise ModelError(f"burst_every must be >= 1, got {burst_every}")
        self._burst_every = burst_every
        self._phase = phase

    def sample(self, task: Task, job_index: int, rng: np.random.Generator) -> float:
        if (job_index + self._phase) % self._burst_every == 0:
            return task.wcet
        return task.bcet


class OverloadWindow(ExecutionTimeModel):
    """Transient overload: one task overruns its WCET for a job window.

    Jobs ``start_job <= j < start_job + n_jobs`` of ``task_name`` execute
    for ``factor * wcet`` -- deliberately *outside* the analysed
    ``[c^b, c^w]`` interval (``factor > 1``), which is the point: the
    analysis never sees the overload, so this model stresses how analytic
    verdicts degrade when the execution-time contract is broken.  All
    other jobs and tasks fall through to ``base``.
    """

    def __init__(
        self,
        base: ExecutionTimeModel,
        task_name: str,
        factor: float,
        start_job: int = 0,
        n_jobs: int = 1,
    ):
        if factor <= 0:
            raise ModelError(f"overload factor must be positive, got {factor}")
        if n_jobs < 1:
            raise ModelError(f"overload window needs n_jobs >= 1, got {n_jobs}")
        self._base = base
        self._task_name = task_name
        self._factor = factor
        self._start_job = start_job
        self._n_jobs = n_jobs

    def sample(self, task: Task, job_index: int, rng: np.random.Generator) -> float:
        if (
            task.name == self._task_name
            and self._start_job <= job_index < self._start_job + self._n_jobs
        ):
            return task.wcet * self._factor
        return self._base.sample(task, job_index, rng)


class _PerTask(ExecutionTimeModel):
    def __init__(self, models: Dict[str, ExecutionTimeModel], default: ExecutionTimeModel):
        self._models = dict(models)
        self._default = default

    def sample(self, task: Task, job_index: int, rng: np.random.Generator) -> float:
        model = self._models.get(task.name, self._default)
        return model.sample(task, job_index, rng)


def per_task_execution(
    models: Dict[str, ExecutionTimeModel],
    default: Optional[ExecutionTimeModel] = None,
) -> ExecutionTimeModel:
    """Combine per-task models (e.g. one task at best case, rest at worst).

    This is how the extremal schedules behind the latency/jitter metrics
    are produced: ``per_task_execution({"tau_1": BestCaseExecution()},
    default=WorstCaseExecution())``.
    """
    return _PerTask(models, default or WorstCaseExecution())
