"""A speed probe that samples, from inside a job's own thread, how fast
the CPU under the job is running at the moment.

On a shared host the speed of one core drifts by 20-40 % over seconds to
minutes, with no steal time to show for it, and a fixed loop timed
before and after a job does not see what happened during it.  The probe
therefore samples during the job: every ``PERIOD_S`` of wall time,
``SIGALRM`` runs a fixed kernel (a pure-Python loop and small numpy
solves, the mix of the program's own work) in the interrupted thread and
records how long it took.  Python runs the handler between two bytecodes
of that thread, so each sample measures the very core the job is on.

A job's time scaled to a CPU on which the kernel takes
``REFERENCE_KERNEL_S`` is ``stats.at_reference_speed``; the probe's own
samples are subtracted from the job's time first.
"""

from __future__ import annotations

import os
import signal
import time
from typing import List, Optional, Tuple

import numpy as np

#: Wall time between two samples, and the kernel time on the reference
#: CPU (about its time on the 2-CPU host the bounds were set on).
PERIOD_S = 0.025
REFERENCE_KERNEL_S = 0.0002

_MATRIX = np.arange(16.0).reshape(4, 4) + 5.0 * np.eye(4)


def kernel() -> int:
    total = 0
    for i in range(600):
        total += i * i % 7
    x = _MATRIX
    for _ in range(8):
        x = np.linalg.solve(_MATRIX, x)
    return total


class SpeedProbe:
    """``(start, seconds)`` of each kernel run, in memory and, given a
    ``path``, appended to that file (one ``start seconds`` line each), for
    probes in processes that exit without returning anything.

    The handler never runs inside itself: a signal that arrives while it
    runs (the process was descheduled for a whole period) is dropped, so
    it never writes into its own half-written line.
    """

    def __init__(self, path: Optional[str] = None):
        self.samples: List[Tuple[float, float]] = []
        self._fd = None if path is None else os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o644)
        self._running = False

    def _sample(self, signum: int, frame: object) -> None:
        if self._running:
            return
        self._running = True
        try:
            start = time.perf_counter()
            kernel()
            seconds = time.perf_counter() - start
            self.samples.append((start, seconds))
            if self._fd is not None:
                os.write(self._fd, f"{start!r} {seconds!r}\n".encode())
        finally:
            self._running = False

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def between(self, start: float, end: float) -> List[float]:
        return [seconds for at, seconds in self.samples if start <= at < end]


def probe_forked_workers(prefix: str) -> None:
    """Start a probe in every process forked from now on (the workers of
    a process pool), each writing its samples to ``<prefix><pid>``."""
    os.register_at_fork(
        after_in_child=lambda: SpeedProbe(f"{prefix}{os.getpid()}").start())


def read_samples(path: str) -> List[Tuple[float, float]]:
    """``(start, seconds)`` of each whole line a sink holds so far."""
    samples = []
    with open(path) as handle:
        for line in handle:
            if line.endswith("\n"):
                start, seconds = line.split()
                samples.append((float(start), float(seconds)))
    return samples


def read_worker_samples(prefix: str, start: float, end: float) -> List[float]:
    """Kernel times that the probes of ``probe_forked_workers(prefix)``
    took between ``start`` and ``end``."""
    directory, stem = os.path.split(prefix)
    return [
        seconds
        for name in sorted(os.listdir(directory)) if name.startswith(stem)
        for at, seconds in read_samples(os.path.join(directory, name))
        if start <= at < end
    ]
