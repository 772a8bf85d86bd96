"""Process-parallel, chunked sweep execution for the paper's experiments.

The paper's headline artifacts are all large parameter sweeps -- thousands
of generated task sets pushed through RTA, jitter-margin, and LQG kernels.
This subsystem factors the common structure out of the experiment drivers:

* :class:`~repro.sweep.spec.SweepSpec` -- declarative sweep description
  (worker x items x params x seed) with deterministic per-item seeding.
* :func:`~repro.sweep.executor.run_sweep` -- chunked execution, serial or
  via a process pool, with per-chunk cache files and resume.
* :class:`~repro.sweep.result.SweepResult` -- aggregated records with a
  canonical (job-count-independent) JSON form and artifact I/O.

Contract: a spec's records are byte-identical across ``jobs=1`` and
``jobs=N`` and across chunk sizes, because workers derive all randomness
from ``(seed, item)`` alone.
"""

from repro.sweep.executor import SweepError, resolve_jobs, run_sweep
from repro.sweep.result import (
    SweepResult,
    atomic_write_text,
    decode_nonfinite,
    encode_nonfinite,
)
from repro.sweep.spec import SweepBoundKeys, SweepChunkWorker, SweepSpec, SweepWorker

__all__ = [
    "SweepSpec",
    "SweepWorker",
    "SweepChunkWorker",
    "SweepBoundKeys",
    "SweepResult",
    "SweepError",
    "resolve_jobs",
    "run_sweep",
    "atomic_write_text",
    "encode_nonfinite",
    "decode_nonfinite",
]
