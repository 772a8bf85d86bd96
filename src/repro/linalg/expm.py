"""Matrix exponential via Pade approximation with scaling and squaring.

This is the classic Higham (2005) algorithm ("The scaling and squaring
method for the matrix exponential revisited", SIAM J. Matrix Anal. Appl.),
the same algorithm behind ``scipy.linalg.expm``.  It is re-implemented here
because the matrix exponential is the single most load-bearing primitive of
the whole reproduction -- every discretisation (dynamics, noise intensity,
quadratic cost, fractional input delays) funnels through it -- and we want
the numerics substrate self-contained and unit-testable in isolation.

Only dense square matrices of modest size (control systems with a handful of
states, Van Loan block embeddings up to ~4x the state dimension) are in
scope, so no sparsity or Schur-based refinements are needed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError

# Maximum ||A||_1 for which the Pade approximant of each order is accurate to
# double precision (theta_m values from Higham 2005, Table 2.3).
_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}

# Pade coefficient tables b_0..b_m for orders 3, 5, 7, 9, 13.
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (
        17643225600.0,
        8821612800.0,
        2075673600.0,
        302702400.0,
        30270240.0,
        2162160.0,
        110880.0,
        3960.0,
        90.0,
        1.0,
    ),
    13: (
        64764752532480000.0,
        32382376266240000.0,
        7771770303897600.0,
        1187353796428800.0,
        129060195264000.0,
        10559470521600.0,
        670442572800.0,
        33522128640.0,
        1323241920.0,
        40840800.0,
        960960.0,
        16380.0,
        182.0,
        1.0,
    ),
}


def _pade_uv(a: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the (U, V) of the order-``order`` Pade approximant of exp(a).

    The approximant is ``r(a) = (V - U)^-1 (V + U)`` with U odd and V even
    in ``a``.  Accepts a single matrix or a ``(k, n, n)`` stack: every
    operation is an elementwise scale/add or a (batched) matmul, so each
    slice of a stacked call is bit-identical to its own 2-D call.
    """
    b = _PADE_COEFFS[order]
    n = a.shape[-1]
    ident = np.eye(n, dtype=a.dtype)
    a2 = a @ a
    if order == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (
            a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
            + b[7] * a6
            + b[5] * a4
            + b[3] * a2
            + b[1] * ident
        )
        v = (
            a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
            + b[6] * a6
            + b[4] * a4
            + b[2] * a2
            + b[0] * ident
        )
        return u, v
    # Orders 3..9: build even powers incrementally.
    powers = [ident, a2]
    while 2 * len(powers) <= order + 1:
        powers.append(powers[-1] @ a2)
    u_poly = sum(b[2 * k + 1] * powers[k] for k in range((order + 1) // 2))
    v = sum(b[2 * k] * powers[k] for k in range(order // 2 + 1))
    return a @ u_poly, v


def expm(a: np.ndarray) -> np.ndarray:
    """Compute the matrix exponential ``e^a`` of a square matrix.

    Parameters
    ----------
    a:
        Square real or complex matrix.

    Returns
    -------
    numpy.ndarray
        ``e^a`` with the same dtype promotion rules as numpy arithmetic.

    Raises
    ------
    DimensionError
        If ``a`` is not a square 2-D array.
    """
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expm expects a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    if n == 1:
        return np.exp(a)

    norm = np.linalg.norm(a, 1)
    if not np.isfinite(norm):
        raise DimensionError("expm argument contains non-finite entries")

    for order in (3, 5, 7, 9):
        if norm <= _PADE_THETA[order]:
            u, v = _pade_uv(a, order)
            return np.linalg.solve(v - u, v + u)

    # Order 13 with scaling: choose s so that ||a/2^s|| <= theta_13.
    squarings = max(0, int(np.ceil(np.log2(norm / _PADE_THETA[13]))))
    a_scaled = a / (2.0**squarings)
    u, v = _pade_uv(a_scaled, 13)
    result = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        result = result @ result
    return result


def _expm_branch(a: np.ndarray, norm: float) -> tuple[int, int]:
    """The ``(order, squarings)`` branch :func:`expm` takes for ``a``."""
    for order in (3, 5, 7, 9):
        if norm <= _PADE_THETA[order]:
            return order, 0
    return 13, max(0, int(np.ceil(np.log2(norm / _PADE_THETA[13]))))


def expm_stack(matrices) -> list:
    """Batched :func:`expm` over a sequence of square matrices.

    Matrices are partitioned by shape, dtype, and the Pade branch (order
    and squaring count, decided from each matrix's own 1-norm exactly as
    :func:`expm` decides it); each partition runs the Pade evaluation,
    the solve, and the squaring chain as stacked ``(k, n, n)`` array
    operations.  Batched matmul and batched solve are slice-exact, so
    every returned exponential is **bit-identical** to ``expm`` of the
    same matrix -- the property the stacked discretisations
    (:func:`repro.lti.discretize.c2d_zoh_delay_stacks`) and the
    co-simulation (:mod:`repro.sim.cosim`) rely on.

    The population discretisations this serves stack dozens-to-hundreds
    of small Van Loan embeddings per call; one batched LAPACK/BLAS pass
    replaces that many interpreter round trips.
    """
    prepared = []
    for a in matrices:
        a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(
                f"expm expects a square matrix, got shape {a.shape}"
            )
        prepared.append(a)
    results: list = [None] * len(prepared)
    by_shape: dict = {}
    for i, a in enumerate(prepared):
        if a.shape[0] <= 1:
            results[i] = expm(a)
            continue
        by_shape.setdefault((a.shape[0], a.dtype.char), []).append(i)
    for _, idxs in by_shape.items():
        shape_stack = np.stack([prepared[i] for i in idxs])
        # Batched 1-norms: column sums then a max, the same reductions
        # ``np.linalg.norm(a, 1)`` performs per slice (sequential at
        # these small dimensions), so every branch decision below is the
        # one the scalar :func:`expm` makes for that matrix.
        norms = np.abs(shape_stack).sum(axis=1).max(axis=1)
        if not np.isfinite(norms).all():
            raise DimensionError("expm argument contains non-finite entries")
        branch_groups: dict = {}
        for j, norm in enumerate(norms):
            branch_groups.setdefault(
                _expm_branch(shape_stack[j], float(norm)), []
            ).append(j)
        for (order, squarings), js in branch_groups.items():
            stack = shape_stack[js] if len(js) < len(idxs) else shape_stack
            if squarings:
                stack = stack / (2.0**squarings)
            u, v = _pade_uv(stack, order)
            result = np.linalg.solve(v - u, v + u)
            for _ in range(squarings):
                result = result @ result
            for j2, j in enumerate(js):
                results[idxs[j]] = result[j2]
    return results
