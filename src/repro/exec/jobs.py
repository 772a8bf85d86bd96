"""Job-count resolution for the execution plane.

``--jobs`` semantics are defined here and **only** here: every layer
that accepts a job count (sweeps, batch APIs, the daemon) routes
through :func:`resolve_jobs`, and
``repro.sweep.resolve_jobs`` is a plain re-export.  One module, one
answer to "what does ``--jobs auto`` mean".
"""

from __future__ import annotations

import os

from repro.errors import ReproError


class ExecError(ReproError):
    """The execution plane could not dispatch or complete a plan."""


def resolve_jobs(jobs) -> int:
    """Resolve a job-count request to a concrete worker count.

    ``None``, ``0`` and ``"auto"`` (case-insensitive) resolve to
    ``os.cpu_count()`` so multi-core hosts scale without hand-tuning;
    positive integers pass through; anything else is an :class:`ExecError`.
    Non-integral numbers are rejected rather than truncated -- a script
    passing ``--jobs 1.5`` gets an error, not a silent serial run.
    """
    if jobs is None:
        return os.cpu_count() or 1
    if isinstance(jobs, str):
        if jobs.strip().lower() == "auto":
            return os.cpu_count() or 1
        try:
            jobs = int(jobs)
        except ValueError:
            raise ExecError(
                f"jobs must be a positive integer, 0, or 'auto'; got {jobs!r}"
            ) from None
    if isinstance(jobs, float):
        if not jobs.is_integer():
            raise ExecError(
                f"jobs must be a whole number of workers, got {jobs!r}"
            )
        jobs = int(jobs)
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ExecError(f"jobs must be >= 0 (0 = auto), got {jobs}")
    return int(jobs)
