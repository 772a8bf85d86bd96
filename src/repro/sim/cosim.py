"""Plant-in-the-loop co-simulation (TrueTime-style).

Closes the loop between the *scheduled* control task and its *continuous*
plant: the plant state evolves by exact matrix exponentials between
scheduling events (one stacked pass per loop, since the schedule is fixed
before the plant replays it); the control task samples the plant output
at its release instants and actuates (zero-order hold) when its *job
completes* under the fixed-priority schedule.  Response-time variation therefore
reaches the plant as genuine time-varying input delay -- this is the
mechanism behind every anomaly in the paper, made executable.

Used by the examples to show a plant physically destabilising when a
priority change pushes its (L, J) outside the stability region, and by
integration tests as an end-to-end check that the jitter-margin
machinery's verdicts correspond to actual trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.control.lqg import LqgDesign
from repro.errors import ModelError
from repro.linalg.expm import expm_stack
from repro.lti.statespace import StateSpace
from repro.rta.taskset import TaskSet
from repro.sim.fpps import simulate_fpps
from repro.sim.trace import Trace
from repro.sim.workload import ExecutionTimeModel


@dataclass(frozen=True)
class ControlLoopResult:
    """Trajectory of one co-simulated control loop."""

    task_name: str
    sample_times: np.ndarray      # job release instants (plant sampled)
    actuation_times: np.ndarray   # job completion instants (ZOH updated)
    outputs: np.ndarray           # plant output at each sample instant
    controls: np.ndarray          # control value applied at each actuation
    state_norms: np.ndarray       # plant state norm at each sample instant

    @property
    def diverged(self) -> bool:
        """Heuristic instability verdict: state norm grew by > 1e6."""
        if self.state_norms.size < 2:
            return False
        start = max(self.state_norms[0], 1e-9)
        return bool(np.max(self.state_norms) > 1e6 * start)

    @property
    def peak_output(self) -> float:
        return float(np.max(np.abs(self.outputs))) if self.outputs.size else 0.0


def cosimulate_control_task(
    taskset: TaskSet,
    task_name: str,
    plant: StateSpace,
    design: LqgDesign,
    duration: float,
    *,
    execution_model: Optional[ExecutionTimeModel] = None,
    x0: Optional[Sequence[float]] = None,
    seed: int = 0,
    trace: Optional[Trace] = None,
) -> ControlLoopResult:
    """Co-simulate one control task of a scheduled task set with its plant.

    The schedule is produced (or supplied via ``trace``) by
    :func:`repro.sim.fpps.simulate_fpps`; the plant then replays the
    schedule: at each job release the controller reads ``y``; at the job's
    completion the plant input switches to the controller's output.  Jobs
    that never complete within the horizon leave the previous control
    value held forever (the failure mode of an unschedulable design).

    The controller state machine is the LQG design's discrete controller
    run at release instants -- identical to the analysis model except that
    actuation happens at the *simulated* completion instant instead of a
    constant delay.
    """
    task = taskset.by_name(task_name)
    if plant.is_discrete:
        raise ModelError("plant must be continuous for co-simulation")
    if abs(design.problem.h - task.period) > 1e-12:
        raise ModelError(
            f"controller period {design.problem.h} != task period {task.period}"
        )
    if trace is None:
        trace = simulate_fpps(
            taskset, duration, execution_model=execution_model, seed=seed
        )
    jobs = sorted(trace.jobs_of(task_name), key=lambda r: r.release)

    controller = design.controller
    xc = np.zeros(controller.n_states)
    x = (
        np.zeros(plant.n_states)
        if x0 is None
        else np.asarray(x0, dtype=float)
    )
    if x.shape != (plant.n_states,):
        raise ModelError(f"x0 must have shape ({plant.n_states},)")

    u_current = 0.0
    current_time = 0.0
    sample_times: List[float] = []
    actuation_times: List[float] = []
    outputs: List[float] = []
    controls: List[float] = []
    state_norms: List[float] = []

    # Event list: (time, kind, payload); kind 0 = sample, 1 = actuate.
    events: List[tuple] = []
    pending_controls: Dict[int, float] = {}
    for job in jobs:
        events.append((job.release, 0, job.job_index))
        if job.finish is not None:
            events.append((job.finish, 1, job.job_index))
    events.sort(key=lambda e: (e[0], e[1]))

    # The schedule is fixed, so every interval the plant flows over is
    # known up front: exponentiate the Van Loan blocks [[A, B], [0, 0]] dt
    # of all of them in one stacked pass (slice-exact with ``expm``).
    steps = []
    step_time = current_time
    for event_time, _, _ in events:
        if event_time > duration:
            break
        if event_time > step_time:
            steps.append(event_time - step_time)
            step_time = event_time
    n, m = plant.n_states, plant.n_inputs
    block = np.zeros((n + m, n + m))
    block[:n, :n] = plant.a
    block[:n, n:] = plant.b
    flows = iter(expm_stack([block * dt for dt in steps]))

    for event_time, kind, job_index in events:
        if event_time > duration:
            break
        if event_time > current_time:
            # Exact flow under the held input: x <- Phi x + Gamma u.
            flow = next(flows)
            x = flow[:n, :n] @ x + flow[:n, n:] @ np.array([u_current])
            current_time = event_time
        if kind == 0:
            y = float((plant.c @ x)[0])
            u_next = float((controller.c @ xc + controller.d @ np.array([y]))[0])
            xc = controller.a @ xc + controller.b @ np.array([y])
            pending_controls[job_index] = u_next
            sample_times.append(event_time)
            outputs.append(y)
            state_norms.append(float(np.linalg.norm(x)))
        else:
            if job_index in pending_controls:
                u_current = pending_controls.pop(job_index)
                actuation_times.append(event_time)
                controls.append(u_current)
        if state_norms and not np.isfinite(state_norms[-1]):
            break  # numerically exploded; verdict is already clear

    return ControlLoopResult(
        task_name=task_name,
        sample_times=np.asarray(sample_times),
        actuation_times=np.asarray(actuation_times),
        outputs=np.asarray(outputs),
        controls=np.asarray(controls),
        state_norms=np.asarray(state_norms),
    )
