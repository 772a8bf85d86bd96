"""Safe linear lower bounds of stability curves: ``L + a J <= b``.

The paper (eq. (5), following [20]) replaces the true stability curve by a
linear constraint ``L + a J <= b`` with ``a >= 1`` and ``b >= 0`` whose
feasible region lies *inside* the true stable region.  All three priority
assignment algorithms check exactly this constraint, so this module is the
bridge between the control-theoretic layer and the scheduling layer.

The fit: ``b`` is the latency axis intercept (largest latency tolerable at
zero jitter, within the sampled window), and ``a`` is the smallest slope
that keeps the line below every sampled point of the curve::

    a = max over samples with J_i > 0 of (b - L_i) / J_i,   a >= 1.

This is the maximal-latency conservative line, visually matching the
"Linear lower bounds" of Fig. 4.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.control.lqg import design_lqg
from repro.control.plants import Plant
from repro.errors import ModelError, NumericalError, RiccatiError
from repro.jittermargin.curve import StabilityCurve, stability_curve


@dataclass(frozen=True)
class LinearStabilityBound:
    """The stability constraint ``L + a J <= b`` of one control task.

    ``a >= 1`` weighs jitter at least as heavily as constant latency
    (jitter is harder to compensate); ``b >= 0`` is the latency budget.
    ``b = 0`` encodes "never stable" (used for degenerate designs).
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a >= 1.0):
            raise ModelError(f"coefficient a must be >= 1, got {self.a}")
        if not (self.b >= 0.0):
            raise ModelError(f"coefficient b must be >= 0, got {self.b}")

    def is_stable(self, latency: float, jitter: float) -> bool:
        """Check ``L + a J <= b`` (paper eq. (5))."""
        return latency + self.a * jitter <= self.b

    def slack(self, latency: float, jitter: float) -> float:
        """Signed margin ``b - L - a J``; negative means unstable."""
        return self.b - latency - self.a * jitter


def fit_linear_bound(curve: StabilityCurve) -> LinearStabilityBound:
    """Fit the conservative linear bound to a sampled stability curve.

    Samples with infinite margin impose no constraint on ``a``; samples
    beyond the stable latency range simply truncate ``b``.  If even zero
    latency is intolerable, the degenerate bound ``(a=1, b=0)`` results.
    """
    stable = ~np.isnan(curve.margins)
    if not np.any(stable):
        return LinearStabilityBound(a=1.0, b=0.0)
    b = curve.max_stable_latency
    slopes = []
    for latency, margin in zip(curve.latencies, curve.margins):
        if math.isnan(margin) or math.isinf(margin) or margin <= 0.0:
            continue
        if latency >= b:
            continue
        slopes.append((b - latency) / margin)
    a = max(slopes, default=1.0)
    return LinearStabilityBound(a=max(a, 1.0), b=float(b))


# ----------------------------------------------------------------------
# Plant-level convenience with caching
# ----------------------------------------------------------------------

#: Relative period quantum used by the cache: periods are bucketed to this
#: resolution so the huge Table I / Fig. 5 sweeps reuse curve fits.
_PERIOD_BUCKETS_PER_DECADE = 60


def _bucket_period(h: float) -> float:
    """Quantise ``h`` on a log grid (about 4% spacing)."""
    if h <= 0:
        raise ModelError(f"period must be positive, got {h}")
    step = 1.0 / _PERIOD_BUCKETS_PER_DECADE
    return float(10.0 ** (round(math.log10(h) / step) * step))


#: Entries the bound table keeps before evicting the least recently used.
_BOUND_TABLE_ENTRIES = 4096

#: A bound-table key: ``(plant name, period bucket, nominal delay / h)``.
BoundKey = Tuple[str, float, float]


#: ``lru_cache``-style statistics of a :class:`BoundTable`.
BoundTableInfo = namedtuple("BoundTableInfo", "hits misses maxsize currsize")


class BoundTable:
    """A table of cached bounds: ``BoundKey -> bound``, LRU-bounded.

    Called like the ``lru_cache`` it replaces (with ``cache_info`` and
    ``cache_clear``), plus :meth:`install`: bounds computed elsewhere --
    a sweep's bound plan in pool workers -- land in the one bounded store
    every lookup reads.  A miss computes outside the lock; concurrent
    misses of one key keep the first bound stored.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[BoundKey, LinearStabilityBound]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def __call__(
        self, plant_name: str, h_bucket: float, nominal_delay_frac: float
    ) -> LinearStabilityBound:
        key = (plant_name, h_bucket, nominal_delay_frac)
        with self._lock:
            bound = self._entries.get(key)
            if bound is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return bound
            self._misses += 1
        bound = _bound_of_key(key)
        self.install([(key, bound)])
        with self._lock:
            return self._entries.get(key, bound)

    def install(self, entries: Iterable[Tuple[BoundKey, LinearStabilityBound]]) -> None:
        """Store computed ``(key, bound)`` pairs; a held key keeps its bound."""
        with self._lock:
            for key, bound in entries:
                self._entries.setdefault(key, bound)
                self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def held(self, keys: Iterable[BoundKey]) -> Dict[BoundKey, LinearStabilityBound]:
        """The bounds held for ``keys`` (no hit counted)."""
        with self._lock:
            return {key: self._entries[key] for key in keys if key in self._entries}

    def cache_info(self) -> BoundTableInfo:
        with self._lock:
            return BoundTableInfo(
                self._hits, self._misses, self.maxsize, len(self._entries)
            )

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = 0


# The process's table is the only cache tier.  Pool workers keep their
# own for the life of the pool, and a sweep on a pool computes its
# declared keys once across the workers and ships them with every chunk
# (``repro.sweep.executor``).  A bespoke disk-backed cross-process memo
# used to live here; it was retired when sweeps moved onto persistent
# pools.
BOUND_TABLE = BoundTable(_BOUND_TABLE_ENTRIES)

#: The lookup every cached bound goes through.  Profilers wrap this
#: name, so code that installs or inspects entries uses
#: :data:`BOUND_TABLE` itself.
_cached_bound = BOUND_TABLE


def bound_key(plant: Plant, h: float, nominal_delay: float = 0.0) -> BoundKey:
    """The table key a cached :func:`stability_bound_for_plant` looks up."""
    frac = 0.0 if h == 0 else nominal_delay / h
    return (plant.name, _bucket_period(h), round(frac, 6))


def compute_bounds(
    keys: Sequence[BoundKey],
) -> List[Tuple[BoundKey, LinearStabilityBound]]:
    """``(key, bound)`` for each key, computed afresh (no table access).

    Module-level and pure, so an execution plan can split a key list
    across pool workers; each bound is exactly what a table miss of its
    key computes.
    """
    return [(key, _bound_of_key(key)) for key in keys]


def _bound_of_key(key: BoundKey) -> LinearStabilityBound:
    from repro.control.plants import get_plant

    plant_name, h_bucket, nominal_delay_frac = key
    return _compute_bound(
        get_plant(plant_name), h_bucket, nominal_delay_frac * h_bucket
    )


def _compute_bound(plant: Plant, h: float, nominal_delay: float) -> LinearStabilityBound:
    q1, q12, q2 = plant.cost_weights()
    r1, r2 = plant.noise_model()
    try:
        design = design_lqg(plant.state_space(), h, nominal_delay, q1, q12, q2, r1, r2)
    except (RiccatiError, NumericalError):
        return LinearStabilityBound(a=1.0, b=0.0)
    curve = stability_curve(
        plant.state_space(),
        design.controller,
        h,
        label=f"{plant.name} @ h={h:g}",
    )
    return fit_linear_bound(curve)


def stability_bound_for_plant(
    plant: Plant,
    h: float,
    *,
    nominal_delay: float = 0.0,
    exact_period: bool = False,
) -> LinearStabilityBound:
    """Design the plant's LQG controller at ``h`` and fit its linear bound.

    With ``exact_period=False`` (default) the period is bucketed on a ~4%
    log grid and results are cached -- the benchmark generator calls this
    tens of thousands of times and nearby periods give nearly identical
    bounds.  Use ``exact_period=True`` for figure-quality curves.

    ``nominal_delay`` is the constant delay the controller is *designed*
    for (as a fraction of ``h`` when caching, so buckets stay consistent).
    """
    if exact_period:
        return _compute_bound(plant, h, nominal_delay)
    return _cached_bound(*bound_key(plant, h, nominal_delay))
