"""Discrete-event simulation of fixed-priority preemptive scheduling.

The analyses of :mod:`repro.rta` predict best/worst response times; this
package *observes* them.  It is used to

* cross-validate eq. (3)/(4) against actual schedules (tests),
* render Fig. 3 of the paper (the graphical meaning of latency and jitter)
  as an executable trace,
* demonstrate the scheduling anomalies as concrete executions, and
* co-simulate plant dynamics under the schedule (TrueTime-style), showing
  a control loop actually destabilising when its stability constraint is
  violated.

Modules: :mod:`~repro.sim.workload` (execution-time models),
:mod:`~repro.sim.fpps` (the heap-driven scheduler),
:mod:`~repro.sim.trace` (job records and response-time statistics),
:mod:`~repro.sim.cosim` (plant-in-the-loop co-simulation),
:mod:`~repro.sim.reference` (the zero-jitter discrete-time reference
loop).
"""

from repro.sim.fpps import simulate_fpps
from repro.sim.reference import (
    ReferenceTrajectory,
    discrete_closed_loop,
    zero_jitter_discrepancy,
)
from repro.sim.trace import JobRecord, Trace
from repro.sim.workload import (
    BestCaseExecution,
    BurstyExecution,
    ConstantExecution,
    ExecutionTimeModel,
    OverloadWindow,
    UniformExecution,
    WorstCaseExecution,
    per_task_execution,
)

__all__ = [
    "simulate_fpps",
    "Trace",
    "JobRecord",
    "ExecutionTimeModel",
    "WorstCaseExecution",
    "BestCaseExecution",
    "ConstantExecution",
    "UniformExecution",
    "BurstyExecution",
    "OverloadWindow",
    "per_task_execution",
    "ReferenceTrajectory",
    "discrete_closed_loop",
    "zero_jitter_discrepancy",
]
