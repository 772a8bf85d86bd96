"""Fixed-priority preemptive scheduling simulator.

Simulates the paper's platform model (sec. II): independent periodic tasks
on a uniprocessor under preemptive fixed priorities.  Execution times per
job come from an :class:`~repro.sim.workload.ExecutionTimeModel`; release
offsets default to the synchronous case (all tasks release at t = 0, the
critical instant of the worst-case analysis).

The simulation is exact (event-driven, no time quantisation): between
events the processor runs the highest-priority pending job; events are job
releases and job completions.  Next releases and pending jobs sit in two
heaps, so an event costs a few heap operations, not a scan of the task
set.  A pending job is a plain list and a finished one a tuple; each
becomes a :class:`~repro.sim.trace.JobRecord` once, at the end, already
in trace order.  Jobs of the same task queue FIFO if a deadline overrun
makes them overlap, which lets the simulator run unschedulable
configurations without aborting (useful when demonstrating *invalid*
priority assignments).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ModelError
from repro.rta.taskset import TaskSet
from repro.sim.trace import JobRecord, Trace
from repro.sim.workload import ExecutionTimeModel, WorstCaseExecution

_TIME_EPS = 1e-12


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
    sample = (execution_model or WorstCaseExecution()).sample
    rng = np.random.default_rng(seed)
    offsets = offsets or {}
    tasks = list(taskset)
    neg_priorities = [-t.priority for t in tasks]
    periods = [t.period for t in tasks]
    horizon = duration + _TIME_EPS
    stop = duration - _TIME_EPS

    # Next release of each task (by index into ``tasks``) that falls
    # within the horizon; the top is the next release event.
    first = [float(offsets.get(t.name, 0.0)) for t in tasks]
    releases = [(release, i) for i, release in enumerate(first) if release <= horizon]
    heapify(releases)
    job_counter = [0] * len(tasks)

    # Pending jobs as lists [-priority, job index, task index, release,
    # execution time, remaining, start].  Priorities are distinct and a
    # task's job indices count up with its releases, so the first two
    # fields order the heap -- the top is the highest-priority job, the
    # earliest-released one of its task -- and the rest is never compared.
    ready: List[list] = []
    # Jobs as tuples (release, -priority, task index, job index, execution
    # time, start, finish): the first two fields are the trace order.
    jobs: List[tuple] = []

    now = 0.0
    while True:
        # Release every job due by ``now + _TIME_EPS``, up to the horizon:
        # the heap holds no release past it, but a task's next ones can be.
        if releases and releases[0][0] <= now + _TIME_EPS:
            limit = now + _TIME_EPS
            if limit > horizon:
                limit = horizon
            release, i = heappop(releases)
            if releases and releases[0][0] <= limit:
                due = [(i, release)]
                while releases and releases[0][0] <= limit:
                    release, i = heappop(releases)
                    due.append((i, release))
                # Task-set order, as stochastic models share one generator.
                due.sort()
            else:
                due = ((i, release),)  # the common case
            for i, release in due:
                task = tasks[i]
                while release <= limit:
                    k = job_counter[i]
                    execution = sample(task, k, rng)
                    if execution <= 0:
                        raise ModelError(
                            f"non-positive execution time for {task.name!r}"
                        )
                    heappush(
                        ready,
                        [neg_priorities[i], k, i, release, execution, execution, None],
                    )
                    job_counter[i] = k + 1
                    release += periods[i]
                if release <= horizon:
                    heappush(releases, (release, i))
        if not now < stop:
            break  # at the horizon, once what is due there is released
        if not ready:
            if not releases:
                break  # idle until the horizon
            now = releases[0][0]
            continue
        job = ready[0]
        if job[6] is None:
            job[6] = now
        finish = now + job[5]
        if releases:
            upcoming = releases[0][0]
            if upcoming < finish - _TIME_EPS:
                # Run until the next release, then re-evaluate (preemption).
                job[5] -= upcoming - now
                now = upcoming
                continue
        # Job completes before any new release (or the horizon).
        if finish > horizon:
            break  # the horizon cuts the job short; it stays unfinished
        now = finish
        heappop(ready)
        jobs.append((job[3], job[0], job[2], job[1], job[4], job[6], finish))

    for job in ready:  # unfinished at the horizon
        jobs.append((job[3], job[0], job[2], job[1], job[4], job[6], None))
    jobs.sort()
    names = [t.name for t in tasks]
    records = [
        JobRecord(names[i], k, release, execution, start, finish)
        for release, _, i, k, execution, start, finish in jobs
    ]
    return Trace(duration=duration, records=records)
