"""Population jitter margins: one latency sweep, one stacked pass.

:func:`repro.jittermargin.margin.jitter_margin` spends almost all of its
time in three places -- discretising the delayed plant (three matrix
exponentials per latency), assembling the closed loop (series/feedback
``np.block`` churn), and the 1200-point stacked pencil solve of the
closed loop's frequency response.  A stability curve evaluates ~41
latencies of the *same* loop shape, and a census evaluates hundreds of
such curves, so this module batches every stage across the latency
population:

* the delayed discretisations ride one :func:`repro.lti.discretize
  .c2d_zoh_delay_stacks` call (deduplicated, stacked matrix
  exponentials, grouped by augmented state dimension, no per-delay
  ``StateSpace`` round-trip);
* the series/feedback assembly is replayed as stacked array operations
  (:func:`_closed_loop_stacks`) -- placements are pure copies and every
  arithmetic step keeps the scalar operator order, with batched matmul
  and batched ``inv`` slice-exact, so each slice equals the scalar
  ``plant_d.series(-K).feedback()`` matrices bit for bit;
* nominal stability is decided from batched eigenvalues (slice-exact,
  so the verdicts equal the scalar ``is_stable`` calls);
* the frequency sweep is evaluated through an eigendecomposition residue
  form ``T(z) = sum_i r_i / (z - lambda_i) + D`` -- O(n) per frequency
  instead of an O(n^3) solve -- which is *fast but not bit-identical*,
  so it is used only to **select** candidate frequencies: the few points
  that can decide each margin (near-minimum bounds, threshold-ambiguous
  magnitudes, the response peak) are recomputed through the exact pencil
  solve in one batched pass (slice-exact, so bitwise equal to the same
  points inside the scalar full-grid call), and the margin is taken from
  those exact floats.

Every guard failure -- unfinite residues, a fast/exact cross-check
mismatch, a candidate set that cannot provably contain the minimum, a
singular pencil or ill-posed loop -- routes that latency through the
scalar :func:`jitter_margin`, so the returned array is bit-identical to
the serial loop either way.  The equivalence suite in
``tests/jittermargin/test_popmargin.py`` pins this across the plant
library.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.jittermargin.margin import (
    _negate,
    default_frequency_grid,
    jitter_margin,
)
from repro.lti.discretize import c2d_zoh_delay_stacks
from repro.lti.statespace import StateSpace
from repro.tiers import observe_tier

#: Latency sweeps smaller than this run the scalar loop: the stacked
#: setup (eig + residues) costs about as much as a handful of margins.
MIN_CURVE_POPULATION = 8

#: Relative half-width of the trust region around the fast residue
#: evaluation.  Fast magnitudes within this band of the 0.5 threshold,
#: and fast bounds within twice this band of the fast minimum, are
#: recomputed exactly; the fast/exact cross-check at those points must
#: also agree to this tolerance or the latency falls back to the scalar
#: path.  Residue evaluations of well-conditioned loops agree to ~1e-12,
#: so the band is six orders of magnitude of safety margin.
_BAND = 1e-6


def _closed_loop_stacks(
    p1: np.ndarray,
    b1: np.ndarray,
    c1: np.ndarray,
    d1: np.ndarray,
    controller: StateSpace,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stacked ``plant.series(controller).feedback()`` matrices.

    ``(p1, b1, c1, d1)`` stack one group of discretised plants sharing an
    augmented state dimension (``c2d_zoh_delay_stacks`` groups them).
    Returns ``(a, b, c, d)`` stacks whose slices are bit-identical to the
    scalar interconnection: block placements are pure copies, and each
    arithmetic line below reproduces the scalar expression of
    :meth:`StateSpace.series` / :meth:`StateSpace.feedback` (unity
    negative feedback) with the same operator order, evaluated through
    slice-exact batched matmul / ``inv``.  Raises
    :class:`numpy.linalg.LinAlgError` if any loop is ill posed.
    """
    g, n1, _ = p1.shape
    n2 = controller.n_states
    a2, b2, c2, d2 = controller.a, controller.b, controller.c, controller.d

    # series: signal flows plant -> controller.
    n = n1 + n2
    m = b1.shape[-1]
    p = controller.n_outputs
    a_s = np.zeros((g, n, n))
    a_s[:, :n1, :n1] = p1
    a_s[:, n1:, :n1] = b2 @ c1
    a_s[:, n1:, n1:] = a2
    b_s = np.zeros((g, n, m))
    b_s[:, :n1, :] = b1
    b_s[:, n1:, :] = b2 @ d1
    c_s = np.empty((g, p, n))
    c_s[:, :, :n1] = d2 @ c1
    c_s[:, :, n1:] = c2
    d_s = d2 @ d1

    # feedback: unity negative feedback (other = identity, 0 states).
    sign = -1
    eye = np.eye(m)
    loop = eye - sign * (eye @ d_s)
    loop_inv = np.linalg.inv(loop)
    b1l = b_s @ loop_inv
    a_f = a_s + sign * b1l @ eye @ c_s
    c_f = c_s + sign * d_s @ loop_inv @ eye @ c_s
    d_f = d_s @ loop_inv
    return a_f, b1l, c_f, d_f


def _select_candidates(
    omega: np.ndarray, fast_mag: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Grid indices whose exact magnitudes can decide each row's margin.

    One vectorised pass over the ``(g, n_omega)`` fast magnitudes.
    Returns ``(selected, trusted, constrained, min_fast)``: a boolean
    selection mask, a per-row all-finite flag (rows failing it rerun
    through the scalar path), a per-row flag for "fast found potentially
    constraining frequencies" (rows without one only confirm the peak),
    and the per-row minimum fast bound (``inf`` on unconstrained rows).
    """
    trusted = np.all(np.isfinite(fast_mag), axis=1)
    if trusted.all():
        safe = fast_mag
    else:
        safe = np.where(trusted[:, None], fast_mag, 0.0)
    maybe = safe > 0.5 * (1.0 - _BAND)
    constrained = maybe.any(axis=1)
    with np.errstate(divide="ignore"):
        bounds = np.where(maybe, 1.0 / (omega[None, :] * safe), np.inf)
    min_fast = bounds.min(axis=1)
    selected = maybe & (bounds <= min_fast[:, None] * (1.0 + 2 * _BAND))
    selected |= np.abs(safe - 0.5) <= 0.5 * _BAND
    selected[np.arange(fast_mag.shape[0]), np.argmax(safe, axis=1)] = True
    selected &= trusted[:, None]
    return selected, trusted, constrained, min_fast


def population_margins(
    plant: StateSpace,
    controller: StateSpace,
    h: float,
    latencies: Sequence[float],
    *,
    omega: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Jitter margins at many latencies of one plant/controller loop.

    Bit-identical to ``[jitter_margin(plant, controller, h, l,
    omega=omega) for l in latencies]``; sweeps below
    :data:`MIN_CURVE_POPULATION` run exactly that loop.
    """
    lat = [float(l) for l in latencies]
    if omega is None:
        omega = default_frequency_grid(h)
    if len(lat) < MIN_CURVE_POPULATION:
        if lat:
            observe_tier("margin-scalar", len(lat), len(lat))
        return np.array(
            [jitter_margin(plant, controller, h, l, omega=omega) for l in lat]
        )

    # Mirror the scalar validation order (closed_loop_with_latency).
    if plant.is_discrete:
        raise ModelError("plant must be continuous time")
    if controller.is_continuous:
        raise ModelError("controller must be discrete time")
    if abs(controller.dt - h) > 1e-12:
        raise ModelError(
            f"controller period {controller.dt} does not match h = {h}"
        )

    grouped = c2d_zoh_delay_stacks(plant, h, lat)
    negated = _negate(controller)
    observe_tier("popmargin", len(lat), len(lat))
    margins = np.empty(len(lat))
    points = np.exp(1j * omega * h)
    scalar_rerun: List[int] = []
    for _, (indices, p1, b1, c1, d1) in grouped.items():
        try:
            a, b, c, d = _closed_loop_stacks(p1, b1, c1, d1, negated)
            # Slice-exact batched eigvals == the scalar is_stable calls.
            stable = np.all(np.abs(np.linalg.eigvals(a)) < 1.0 - 1e-9, axis=1)
            eigenvalues, vectors = np.linalg.eig(a)
            b_complex = b.astype(complex)
            weights = np.linalg.solve(vectors, b_complex)  # (g, n, 1)
        except np.linalg.LinAlgError:
            scalar_rerun.extend(indices)
            continue
        residues = (c.astype(complex) @ vectors)[:, 0, :] * weights[:, :, 0]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # One accumulation pass per eigen-term keeps the working set
            # at (g, n_omega) instead of materialising the full
            # (g, n_omega, n) quotient tensor -- ~2x faster.  The fast
            # evaluation only *selects* candidates, so the summation
            # order is free to differ from a fused reduction.
            fast = np.zeros((len(indices), omega.size), dtype=complex)
            fast += d[:, 0, 0][:, None]  # seed with the feedthrough term
            term = np.empty_like(fast)
            points_row = points[None, :]
            for i in range(eigenvalues.shape[1]):
                np.subtract(points_row, eigenvalues[:, i, None], out=term)
                np.divide(residues[:, i, None], term, out=term)
                fast += term
            fast_mag = np.abs(fast)

        # Select each latency's deciding frequencies, then solve every
        # selected (latency, frequency) pencil in one batched pass.
        selected, trusted, constrained, min_fast = _select_candidates(
            omega, fast_mag
        )
        live = stable & trusted
        for j, k in enumerate(indices):
            if not stable[j]:
                margins[k] = float("nan")
            elif not trusted[j]:
                scalar_rerun.append(k)
        if not live.any():
            continue
        selected &= live[:, None]
        rows_arr, flat_points = np.nonzero(selected)
        n = a.shape[-1]
        pencil = (
            points[flat_points][:, None, None] * np.eye(n) - a[rows_arr]
        )
        rhs = b_complex[rows_arr]
        try:
            resolvent = np.linalg.solve(pencil, rhs)
            exact_all = np.abs(
                (c[rows_arr] @ resolvent + d[rows_arr])[:, 0, 0]
            )
        except np.linalg.LinAlgError:
            # A singular pencil anywhere: the affected latencies cannot
            # be told apart cheaply, rerun the whole group serially.
            scalar_rerun.extend(k for j, k in enumerate(indices) if live[j])
            continue
        # Vectorised :func:`_decide_margin` over the group's rows: the
        # per-point expressions are elementwise identical, segment
        # reductions replace the per-row slicing (``np.nonzero`` orders
        # points row-major, so each segment is one row's candidates in
        # ascending frequency), and min/any are order-independent.
        fast_sel = fast_mag[selected]
        mismatch = np.abs(exact_all - fast_sel) > _BAND * np.maximum(
            exact_all, 1.0
        )
        constraining = exact_all > 0.5
        with np.errstate(divide="ignore", invalid="ignore"):
            bounds_pt = np.where(
                constraining,
                1.0 / (omega[flat_points] * exact_all),
                np.inf,
            )
        # ``np.nonzero`` emits rows in sorted order, so segment starts
        # fall out of one diff -- no need for ``np.unique``'s re-sort.
        seg_starts = np.concatenate(
            ([0], np.flatnonzero(rows_arr[1:] != rows_arr[:-1]) + 1)
        )
        present = rows_arr[seg_starts]
        row_bad = np.logical_or.reduceat(mismatch, seg_starts)
        row_constraining = np.logical_or.reduceat(constraining, seg_starts)
        row_min = np.minimum.reduceat(bounds_pt, seg_starts)
        first_exact = exact_all[seg_starts]
        for i, j in enumerate(present):
            k = indices[j]
            if row_bad[i]:
                scalar_rerun.append(k)  # fast/exact cross-check failed
            elif not constrained[j]:
                # Peak-only confirmation of the unconstrained case.
                if first_exact[i] > 0.5 * (1.0 - _BAND):
                    scalar_rerun.append(k)
                else:
                    margins[k] = float("inf")
            elif not row_constraining[i]:
                scalar_rerun.append(k)  # every candidate dropped below 0.5
            elif row_min[i] > min_fast[j] * (1.0 + _BAND):
                scalar_rerun.append(k)  # true minimum could hide outside
            else:
                margins[k] = float(row_min[i])
    for k in sorted(scalar_rerun):
        margins[k] = jitter_margin(plant, controller, h, lat[k], omega=omega)
    return margins
