"""Reference FPPS scheduler: the scan-based ``simulate_fpps`` of v3.0.0.

A test-only oracle for :func:`repro.sim.fpps.simulate_fpps`.  At every
event it rescans all tasks for due releases and all pending jobs for the
highest priority, which is slow but obviously right; the shipped
heap-driven scheduler must reproduce its traces record for record.
The body below is kept exactly as it shipped; do not optimise it.

:class:`ReferenceUniformExecution` is ``UniformExecution`` as it shipped
through v5.0.0, one ``rng.uniform`` call per job, so that the oracle's
side also draws execution times the old way.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import ModelError
from repro.rta.taskset import Task, TaskSet
from repro.sim.trace import JobRecord, Trace
from repro.sim.workload import ExecutionTimeModel, WorstCaseExecution

_TIME_EPS = 1e-12


class _ActiveJob:
    __slots__ = ("task", "job_index", "release", "execution_time", "remaining", "start")

    def __init__(self, task: Task, job_index: int, release: float, execution_time: float):
        self.task = task
        self.job_index = job_index
        self.release = release
        self.execution_time = execution_time
        self.remaining = execution_time
        self.start: Optional[float] = None


def simulate_fpps(
    taskset: TaskSet,
    duration: float,
    *,
    execution_model: Optional[ExecutionTimeModel] = None,
    offsets: Optional[Dict[str, float]] = None,
    seed: int = 0,
) -> Trace:
    """Simulate the task set for ``duration`` seconds.

    Parameters
    ----------
    taskset:
        Tasks with distinct priorities assigned (larger value = higher
        priority, the paper's convention).
    duration:
        Simulated time horizon; jobs released before the horizon but
        finishing after it appear as uncompleted records.
    execution_model:
        Per-job execution times; defaults to all-worst-case.
    offsets:
        Optional release offset per task name (defaults to 0: synchronous
        release).
    seed:
        Seed for stochastic execution models.
    """
    taskset.check_distinct_priorities()
    if duration <= 0:
        raise ModelError(f"duration must be positive, got {duration}")
    model = execution_model or WorstCaseExecution()
    rng = np.random.default_rng(seed)
    offsets = offsets or {}

    # Next release time and job counter per task.
    next_release: Dict[str, float] = {
        t.name: float(offsets.get(t.name, 0.0)) for t in taskset
    }
    job_counter: Dict[str, int] = {t.name: 0 for t in taskset}
    by_priority = sorted(taskset, key=lambda t: t.priority, reverse=True)

    ready: List[_ActiveJob] = []  # all pending jobs, any task
    records: List[JobRecord] = []
    now = 0.0

    def release_due_jobs(time: float) -> None:
        for task in taskset:
            while next_release[task.name] <= time + _TIME_EPS:
                release = next_release[task.name]
                if release > duration + _TIME_EPS:
                    break
                execution = model.sample(task, job_counter[task.name], rng)
                if execution <= 0:
                    raise ModelError(
                        f"non-positive execution time for {task.name!r}"
                    )
                ready.append(
                    _ActiveJob(task, job_counter[task.name], release, execution)
                )
                job_counter[task.name] += 1
                next_release[task.name] = release + task.period

    def pick_job() -> Optional[_ActiveJob]:
        best: Optional[_ActiveJob] = None
        for job in ready:
            if best is None:
                best = job
                continue
            if job.task.priority > best.task.priority or (
                job.task.priority == best.task.priority
                and job.release < best.release
            ):
                best = job
        return best

    release_due_jobs(0.0)
    while now < duration - _TIME_EPS:
        upcoming = min(
            (r for r in next_release.values() if r <= duration + _TIME_EPS),
            default=None,
        )
        current = pick_job()
        if current is None:
            if upcoming is None:
                break  # idle until the horizon
            now = upcoming
            release_due_jobs(now)
            continue
        if current.start is None:
            current.start = now
        finish_time = now + current.remaining
        if upcoming is not None and upcoming < finish_time - _TIME_EPS:
            # Run until the next release, then re-evaluate (preemption).
            current.remaining -= upcoming - now
            now = upcoming
            release_due_jobs(now)
            continue
        # Job completes before any new release (or the horizon).
        if finish_time > duration + _TIME_EPS:
            # Horizon cuts the job short; leave it unfinished.
            current.remaining -= duration - now
            now = duration
            break
        now = finish_time
        current.remaining = 0.0
        ready.remove(current)
        records.append(
            JobRecord(
                task_name=current.task.name,
                job_index=current.job_index,
                release=current.release,
                execution_time=current.execution_time,
                start=current.start,
                finish=now,
            )
        )
        release_due_jobs(now)

    for job in ready:  # unfinished at the horizon
        records.append(
            JobRecord(
                task_name=job.task.name,
                job_index=job.job_index,
                release=job.release,
                execution_time=job.execution_time,
                start=job.start,
                finish=None,
            )
        )
    records.sort(key=lambda r: (r.release, -_priority_of(taskset, r.task_name)))
    return Trace(duration=duration, records=records)


def _priority_of(taskset: TaskSet, name: str) -> int:
    return taskset.by_name(name).priority  # type: ignore[return-value]


class ReferenceUniformExecution(ExecutionTimeModel):
    """Execution times drawn uniformly from ``[c^b, c^w]`` per job."""

    def sample(self, task: Task, job_index: int, rng: np.random.Generator) -> float:
        if task.wcet == task.bcet:
            return task.wcet
        return float(rng.uniform(task.bcet, task.wcet))
