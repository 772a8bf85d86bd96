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
* the frequency sweep is *screened* through the loop's factorised form
  (:func:`_screen_magnitudes`), which is fast but not bit-identical, so
  it only **selects** candidate frequencies: the few points that can
  decide each margin (near-minimum bounds, threshold-ambiguous
  magnitudes, the response peak) are recomputed through the exact
  pencil solve in one batched pass (slice-exact, so bitwise equal to the
  same points inside the scalar full-grid call), and the margin is taken
  from those exact floats.

The screen.  For a single-input single-output loop the complementary
sensitivity is ``T = G / (1 + G)`` with the open-loop gain ``G = K~
P_L``.  A latency ``L = (d - 1) h + tau'`` enters the sampled plant only
through its two held-input weights, ``P_L(z) = z^-(d-1) C R(z) (Gamma0 +
z^-1 Gamma1)`` with the resolvent row ``C R(z) = C (zI - Phi)^-1``.  So
the plant's resolvent row and the negated controller's response ``K~``
are evaluated once per sweep on the shared grid (closed forms for one-
and two-state systems, no per-frequency LAPACK call), each ``d``-step
group of latencies costs one real matmul of its held-input weights
against that shared basis, and ``|T| = |G| / |1 + G|`` is two
magnitudes and a division per (row, frequency) -- not one complex
division per closed-loop pole.  Its error is that of ``G`` -- a few
rounding errors of well-scaled, few-state evaluations -- amplified to
first order by ``|S| = 1 / |1 + G|``, the loop's sensitivity; nothing in
it depends on the closed loop's eigenvector basis, which a residue form
``sum_i r_i / (z - lambda_i)`` would multiply in as ``cond(V)`` (up to
1.6e7 on the census, unbounded at a repeated pole).  The census key
plans of seeds 424242, 1 and 2 hold the same 267 keys, whose 9,509
stable rows peak at ``|S|`` = 1,677 (99th percentile 51); over every
grid point of those rows the screen was within 5.4e-13 of the exact
response, relative to ``max(|T|, 1)`` as the cross-check measures it
-- over six orders of magnitude inside :data:`_BAND`.

Every guard failure -- an unfinite screen value, a fast/exact
cross-check mismatch, a candidate set that cannot provably contain the
minimum, a singular pencil or ill-posed loop -- routes that latency
through the scalar :func:`jitter_margin`, and so does every sweep of a
loop that is not single-input single-output, so the returned array is
bit-identical to the serial loop either way.  The equivalence suite in
``tests/jittermargin/test_popmargin.py`` pins this across the plant
library.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

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
#: setup (discretisation stacks, batched eigenvalues, the screen's
#: shared resolvents) costs about as much as a handful of margins.
MIN_CURVE_POPULATION = 8

#: Relative half-width of the trust region around the fast screen.  Fast
#: magnitudes within this band of the 0.5 threshold, and fast bounds
#: within twice this band of the fast minimum, are recomputed exactly;
#: the fast/exact cross-check at those points must also agree to this
#: tolerance or the latency falls back to the scalar path.  The screen
#: agrees with the exact response to ~1e-12 on the census loops, so the
#: band is six orders of magnitude of safety margin.
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


def _resolvent_rows(
    a: np.ndarray, c: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """``c (zI - a)^-1`` at every grid point ``z``, as an ``(n, W)`` array.

    ``c`` is one output row.  Systems of up to two states (every plant
    and controller of the census) take closed forms -- the two-state
    inverse by cofactors, forward stable at that size -- so no
    per-frequency LAPACK call is made; larger ones solve the transposed
    pencil in one stacked call (which a memoryless controller's zero
    states pass through as an empty row block).  The result is C-ordered
    either way: the screen reads it as interleaved (re, im) columns.
    """
    n = a.shape[0]
    if n == 1:
        return (c[0, 0] / (points - a[0, 0]))[None, :]
    if n == 2:
        zp = points - a[0, 0]
        zs = points - a[1, 1]
        inv_det = 1.0 / (zp * zs - a[0, 1] * a[1, 0])
        return np.stack(
            (
                (c[0, 0] * zs + c[0, 1] * a[1, 0]) * inv_det,
                (c[0, 0] * a[0, 1] + c[0, 1] * zp) * inv_det,
            )
        )
    pencil = points[:, None, None] * np.eye(n) - a.T
    rhs = np.broadcast_to(c.T.astype(complex), (points.size, n, 1))
    try:
        return np.ascontiguousarray(np.linalg.solve(pencil, rhs)[:, :, 0].T)
    except np.linalg.LinAlgError:
        # A grid point on a pole: no screen value can be trusted.
        return np.full((n, points.size), np.nan, dtype=complex)


def _screen_magnitudes(
    plant: StateSpace, negated: StateSpace, points: np.ndarray, grouped: dict
) -> Dict[int, np.ndarray]:
    """Fast ``|T| = |G| / |1 + G|`` of a sweep: ``{d_steps: (g, W)}``.

    ``grouped`` holds the sweep's augmented plants
    (:func:`~repro.lti.discretize.c2d_zoh_delay_stacks`), ``negated``
    is the negated controller ``K~`` and ``points`` the grid's ``z``.
    The plant's resolvent row ``C R = C (zI - Phi)^-1`` and ``K~(z)``
    are evaluated once; each row's open-loop gain is then ``G = K~
    z^-(d-1) C R (Gamma0 + z^-1 Gamma1)``.  In the augmented layout of
    :func:`~repro.lti.discretize.c2d_zoh_delay`, ``Gamma1`` weighs the
    oldest held input (the first augmented column) and ``Gamma0`` the
    next one (the fresh input itself when ``d_steps == 1``); a delay-free
    plant has ``Gamma0 = Gamma`` alone.  Non-finite entries are left for
    the caller's trust check.
    """
    n = plant.n_states
    z_inv = 1.0 / points
    screens = {}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phi = next(iter(grouped.values()))[1][0, :n, :n]
        plant_rows = _resolvent_rows(phi, plant.c, points)
        gain = negated.d[0, 0] + negated.b[:, 0] @ _resolvent_rows(
            negated.a, negated.c, points
        )
        for d_steps, (_, p1, b1, _, _) in grouped.items():
            if d_steps == 0:
                weights = b1[:, :n, 0]
                basis = plant_rows * gain
            else:
                gamma0 = b1[:, :n, 0] if d_steps == 1 else p1[:, :n, n + 1]
                weights = np.concatenate((gamma0, p1[:, :n, n]), axis=1)
                shifted = plant_rows * (gain * z_inv ** (d_steps - 1))
                basis = np.concatenate((shifted, shifted * z_inv))
            # Real weights against a complex basis: one real matmul
            # over the basis's interleaved (re, im) columns.
            g = (weights @ basis.view(float)).view(complex)
            screens[d_steps] = np.abs(g) / np.abs(1.0 + g)
    return screens


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
    :data:`MIN_CURVE_POPULATION`, and loops that are not single-input
    single-output, run exactly that loop.
    """
    lat = [float(l) for l in latencies]
    if omega is None:
        omega = default_frequency_grid(h)
    siso = (
        plant.n_inputs == plant.n_outputs == 1
        and controller.n_inputs == controller.n_outputs == 1
    )
    if len(lat) < MIN_CURVE_POPULATION or not siso:
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
    margins = np.empty(len(lat))
    points = np.exp(1j * omega * h)
    screens = _screen_magnitudes(plant, negated, points, grouped)
    scalar_rerun: List[int] = []
    for d_steps, (indices, p1, b1, c1, d1) in grouped.items():
        try:
            a, b, c, d = _closed_loop_stacks(p1, b1, c1, d1, negated)
            # Slice-exact batched eigvals == the scalar is_stable calls.
            stable = np.all(np.abs(np.linalg.eigvals(a)) < 1.0 - 1e-9, axis=1)
        except np.linalg.LinAlgError:
            scalar_rerun.extend(indices)
            continue
        fast_mag = screens[d_steps]

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
        rhs = b[rows_arr].astype(complex)
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
    decided = len(lat) - len(scalar_rerun)
    if decided:
        observe_tier("popmargin", decided, len(lat))
    if scalar_rerun:
        observe_tier("margin-scalar", len(scalar_rerun), len(scalar_rerun))
    for k in sorted(scalar_rerun):
        margins[k] = jitter_margin(plant, controller, h, lat[k], omega=omega)
    return margins
