"""The benchmark's own arithmetic: order statistics, the tail rule,
open-loop timing and failure accounting.

Pure functions over plain numbers, so ``perfbench/tests`` can check them
without the program under test.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: Outcome classes of one request; every request sent lands in exactly one.
OUTCOMES = ("ok", "http_error", "connect_error", "timeout", "mismatch")


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def trimmed_mean(values: Sequence[float], cut: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and highest ``cut`` share.

    A probe sample that an interrupt or a context switch stretched by
    ten times weighs no more than any other cut sample.
    """
    if not values:
        raise ValueError("trimmed mean of no samples")
    ordered = sorted(values)
    drop = int(len(ordered) * cut)
    return float(statistics.fmean(ordered[drop:len(ordered) - drop]))


def at_reference_speed(seconds: float, kernel_s: float, reference_s: float) -> float:
    """``seconds`` of work scaled to a CPU on which the probe kernel
    takes ``reference_s``, given that it took ``kernel_s`` meanwhile."""
    if kernel_s <= 0.0:
        raise ValueError("no probe samples to scale by")
    return seconds * reference_s / kernel_s


def percentile(
    values: Sequence[float], q: int, *, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or ``None`` when unsupported.

    The rank is ``ceil(q * n / 100)`` (1-based, integer arithmetic).  The
    percentile is supported only when at least ``min_beyond`` samples lie
    beyond that rank; ``math.inf`` entries (failed requests) sort last, so
    a failure counts as missing every latency limit.
    """
    if not isinstance(q, int) or not 0 < q < 100:
        raise ValueError(f"q must be an integer in (0, 100), got {q!r}")
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, (q * n + 99) // 100)
    if n - rank < min_beyond:
        return None
    return float(ordered[rank - 1])


def tail_or_median(values: Sequence[float], q: int) -> float:
    """``percentile(values, q)`` where supported, else the median.

    Used for the ``p99_ms`` metric on workloads whose run holds too few
    samples for any supported tail (a batch job per fresh interpreter).
    """
    tail = percentile(values, q)
    return median(values) if tail is None else tail


def due_time(start: float, index: int, rate: float) -> float:
    """When open-loop request ``index`` is due: ``start + index / rate``."""
    return start + index / rate


def latency_from_due(due: float, done: Optional[float]) -> float:
    """Latency counted from the due time; ``None`` (failed) is ``inf``.

    Timing from the due time instead of the send time charges a stall to
    every request queued behind it (no coordinated omission).
    """
    return math.inf if done is None else done - due


def lateness(due: float, sent: float) -> float:
    """How late the generator sent a request (never negative)."""
    return max(0.0, sent - due)


def completion_rate(start: float, completions: Sequence[float]) -> float:
    """Completions per second from ``start`` to the last completion."""
    if not completions:
        return 0.0
    return len(completions) / (max(completions) - start)


@dataclass
class Tally:
    """Failure accounting of one phase: each request sent is one outcome."""

    counts: Dict[str, int] = field(
        default_factory=lambda: {outcome: 0 for outcome in OUTCOMES}
    )

    def add(self, outcome: str) -> None:
        if outcome not in self.counts:
            raise ValueError(f"unknown outcome {outcome!r}")
        self.counts[outcome] += 1

    @property
    def sent(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.sent - self.counts["ok"]

    def merged(self, other: "Tally") -> "Tally":
        return Tally({k: self.counts[k] + other.counts[k] for k in OUTCOMES})
