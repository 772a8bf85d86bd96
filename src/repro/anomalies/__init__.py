"""Scheduling anomalies: detection, construction, and measurement.

The subject matter of the paper: *anomalies* are violations of the
intuitive monotonicity of scheduling -- giving a control task "more"
resource (higher priority, or reducing others' interference) can *worsen*
its latency/jitter interface and destabilise its plant.

* :mod:`~repro.anomalies.detectors` -- predicates that detect, for a
  concrete task set, whether a parameter change (priority raise, WCET
  decrease of an interferer, period increase of an interferer) degrades a
  task's stability slack: the three anomaly families of [20] / sec. I.
* :mod:`~repro.anomalies.census` -- Monte-Carlo measurement of how often
  each anomaly family occurs over random benchmarks (the paper's
  "anomalies occur extremely rarely", quantified beyond Table I).
* :mod:`~repro.anomalies.scenarios` -- small concrete task sets exhibiting
  each anomaly, found by guided search and kept as regression fixtures
  (executable counterparts of the examples in [20]).
"""

from repro.anomalies.census import AnomalyCensus
from repro.anomalies.detectors import (
    all_anomalies,
    jitter_after_priority_raise,
    population_anomalies,
    priority_raise_anomalies,
    wcet_decrease_anomalies,
    period_increase_anomalies,
)
from repro.anomalies.scenarios import (
    find_priority_raise_anomaly,
    priority_raise_anomaly_example,
)
from repro.anomalies.sensitivity import (
    PriorityLevelProfile,
    ScalingMargin,
    priority_level_margin,
    sensitivity_report,
    wcet_scaling_margin,
)

__all__ = [
    "all_anomalies",
    "population_anomalies",
    "jitter_after_priority_raise",
    "priority_raise_anomalies",
    "wcet_decrease_anomalies",
    "period_increase_anomalies",
    "AnomalyCensus",
    "find_priority_raise_anomaly",
    "priority_raise_anomaly_example",
    "wcet_scaling_margin",
    "sensitivity_report",
    "priority_level_margin",
    "ScalingMargin",
    "PriorityLevelProfile",
]
