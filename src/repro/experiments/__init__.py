"""Experiment drivers: one module per paper artifact.

Each driver regenerates one table or figure of the paper as structured
data plus a plain-text rendering (no plotting dependencies -- the series
are printed in full so they can be re-plotted anywhere):

* :mod:`~repro.experiments.fig2` -- control cost vs sampling period.
* :mod:`~repro.experiments.fig4` -- stability curve + linear lower bound.
* :mod:`~repro.experiments.table1` -- % invalid solutions of Unsafe
  Quadratic.
* :mod:`~repro.experiments.fig5` -- runtime of Backtracking vs Unsafe
  Quadratic.
* :mod:`~repro.experiments.census` -- anomaly census (extension).
* :mod:`~repro.experiments.jittercurve` -- expected cost vs jitter
  (extension).
* :mod:`~repro.experiments.assign` -- the priority-assignment suite
  compared on generated benchmarks (extension).

Every driver module has the same three entry points: ``sweep_spec(...)``
describes the experiment for :func:`repro.sweep.run_sweep`,
``from_sweep(result)`` reduces the executed (or reloaded) sweep to the
result object, and ``run_*(..., jobs=)`` does both.  ``python -m repro
<experiment>`` (:mod:`repro.cli`) runs the first two and can write the
sweep artifact.
"""

from repro.experiments.fig2 import Fig2Result, run_fig2
from repro.experiments.fig4 import Fig4Result, run_fig4
from repro.experiments.fig5 import Fig5Result, run_fig5
from repro.experiments.table1 import Table1Result, run_table1

__all__ = [
    "run_fig2",
    "Fig2Result",
    "run_fig4",
    "Fig4Result",
    "run_table1",
    "Table1Result",
    "run_fig5",
    "Fig5Result",
]
