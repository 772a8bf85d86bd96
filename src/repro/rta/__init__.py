"""Response-time analysis substrate (paper sec. II-III).

Implements the task model and the exact fixed-priority response-time
analyses the paper builds on:

* :mod:`~repro.rta.taskset` -- tasks ``tau_i = (c^b_i, c^w_i, h_i, rho_i)``
  and task sets.
* :mod:`~repro.rta.wcrt` -- exact worst-case response time, eq. (3)
  (Joseph & Pandya).
* :mod:`~repro.rta.bcrt` -- exact best-case response time, eq. (4)
  (Redell & Sanfridson).
* :mod:`~repro.rta.interface` -- the latency/jitter interface of eq. (2):
  ``L_i = R^b_i``, ``J_i = R^w_i - R^b_i``, and the per-task stability
  predicate the assignment algorithms evaluate.
* :mod:`~repro.rta.popbatch` -- whole task sets and populations on the
  record kernel of :mod:`repro.memo.kernels` and its stacked twin.

``wcrt``/``bcrt`` are the readable reference the equivalence suites
compare the kernels against.
"""

from repro.rta.bcrt import best_case_response_time
from repro.rta.popbatch import analyze_population, evaluate_problems
from repro.rta.interface import (
    ResponseTimes,
    latency_jitter,
    response_time_interface,
    task_is_stable,
)
from repro.rta.taskset import Task, TaskSet
from repro.rta.wcrt import worst_case_response_time

__all__ = [
    "Task",
    "TaskSet",
    "worst_case_response_time",
    "best_case_response_time",
    "ResponseTimes",
    "latency_jitter",
    "response_time_interface",
    "task_is_stable",
    "analyze_population",
    "evaluate_problems",
]
