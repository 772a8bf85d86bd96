"""Zero-order-hold discretisation, with and without input delay.

The control tasks of the paper sample their plant periodically and actuate
through a zero-order hold after a scheduling-induced delay.  Following
Astrom & Wittenmark (*Computer-Controlled Systems*, sec. 3.2), a delay
``tau = (d - 1) h + tau'`` with ``tau' in (0, h]`` turns the sampled plant
into::

    x[k+1] = Phi x[k] + Gamma1 u[k - d] + Gamma0 u[k - d + 1]

with ``Phi = e^{Ah}``, ``Gamma0 = int_0^{h - tau'} e^{As} ds B`` (the new
control value, active during the tail of the period) and
``Gamma1 = e^{A (h - tau')} int_0^{tau'} e^{As} ds B`` (the previous value,
active during the head).  :func:`c2d_zoh_delay` returns the augmented
system whose state stacks the plant state with the ``d`` in-flight control
values, which is what the delay-aware LQG design operates on.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import DimensionError, ModelError
from repro.linalg.expm import expm, expm_stack
from repro.lti.statespace import StateSpace


def _phi_gamma(a: np.ndarray, b: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """ZOH sample of ``(A, B)`` over an interval of length ``h >= 0``."""
    n, m = a.shape[0], b.shape[1]
    if h == 0.0:
        return np.eye(n), np.zeros((n, m))
    block = np.zeros((n + m, n + m))
    block[:n, :n] = a
    block[:n, n:] = b
    big = expm(block * h)
    return big[:n, :n], big[:n, n:]


def c2d_zoh(system: StateSpace, h: float) -> StateSpace:
    """Discretise a continuous system with a zero-order hold, no delay."""
    if system.is_discrete:
        raise ModelError("c2d_zoh expects a continuous-time system")
    if h <= 0:
        raise ModelError(f"sampling period must be positive, got {h}")
    phi, gamma = _phi_gamma(system.a, system.b, h)
    return StateSpace(phi, gamma, system.c, system.d, dt=h)


def c2d_zoh_delay(system: StateSpace, h: float, delay: float) -> StateSpace:
    """Discretise with a zero-order hold and an input delay ``delay >= 0``.

    Returns the *augmented* discrete system.  For ``delay = 0`` this equals
    :func:`c2d_zoh`.  For ``delay > 0`` the state is
    ``z[k] = [x[k], u[k-d], ..., u[k-1]]`` where ``d = ceil(delay / h)``;
    the input is the freshly computed control value ``u[k]``, the output is
    the original plant output (no feed-through of in-flight inputs).

    The augmentation is exact for any non-negative delay, including
    fractional delays larger than one period.
    """
    if system.is_discrete:
        raise ModelError("c2d_zoh_delay expects a continuous-time system")
    if h <= 0:
        raise ModelError(f"sampling period must be positive, got {h}")
    if delay < 0:
        raise ModelError(f"delay must be non-negative, got {delay}")
    if system.d.size and np.any(system.d != 0.0):
        raise ModelError("plants with direct feed-through are not supported")

    if delay == 0.0:
        return c2d_zoh(system, h)

    n, m = system.n_states, system.n_inputs
    # delay = (d - 1) h + tau' with tau' in (0, h].
    d_steps = max(1, math.ceil(delay / h - 1e-12))
    tau_prime = delay - (d_steps - 1) * h
    if tau_prime <= 0.0:  # numerical guard when delay is an exact multiple
        tau_prime = h

    phi, _ = _phi_gamma(system.a, system.b, h)
    _, gamma_tail = _phi_gamma(system.a, system.b, h - tau_prime)
    phi_tail = expm(system.a * (h - tau_prime))
    _, gamma_head = _phi_gamma(system.a, system.b, tau_prime)
    gamma0 = gamma_tail               # weight of u[k - d + 1]
    gamma1 = phi_tail @ gamma_head    # weight of u[k - d]

    # Augmented state: [x, u[k-d], ..., u[k-1]]  (d_steps held inputs).
    size = n + d_steps * m
    a_aug = np.zeros((size, size))
    b_aug = np.zeros((size, m))
    a_aug[:n, :n] = phi
    a_aug[:n, n : n + m] = gamma1
    if d_steps >= 2:
        a_aug[:n, n + m : n + 2 * m] = gamma0
        # Shift chain: u[k-j] <- u[k-j+1].
        for j in range(d_steps - 1):
            a_aug[n + j * m : n + (j + 1) * m, n + (j + 1) * m : n + (j + 2) * m] = np.eye(m)
        b_aug[n + (d_steps - 1) * m :, :] = np.eye(m)
    else:
        # d_steps == 1: u[k - d + 1] = u[k] enters through B.
        b_aug[:n, :] = gamma0
        b_aug[n:, :] = np.eye(m)
    c_aug = np.hstack([system.c, np.zeros((system.n_outputs, d_steps * m))])
    return StateSpace(a_aug, b_aug, c_aug, dt=h)


def c2d_zoh_delay_stacks(
    system: StateSpace, h: float, delays
) -> dict:
    """Grouped, stacked augmented discretisations of one plant.

    Returns ``{d_steps: (indices, a, b, c, d)}`` where ``indices`` are the
    positions into ``delays`` whose augmentation has ``d_steps`` held
    inputs (0 for delay-free entries) and the arrays stack the group's
    augmented matrices, slice ``j`` bit-identical to the matrices of
    ``c2d_zoh_delay(system, h, delays[indices[j]])``: the deduplicated
    exponentials come from one :func:`expm_stack` pass, every block
    placement is a pure copy, and the only arithmetic -- ``phi_tail @
    gamma_head`` -- runs as a slice-exact batched matmul.  The
    population margin kernel consumes
    these stacks directly, skipping the per-delay ``StateSpace``
    round-trip entirely.
    """
    if system.is_discrete:
        raise ModelError("c2d_zoh_delay expects a continuous-time system")
    if h <= 0:
        raise ModelError(f"sampling period must be positive, got {h}")
    delays = [float(d) for d in delays]
    for delay in delays:
        if delay < 0:
            raise ModelError(f"delay must be non-negative, got {delay}")
    if system.d.size and np.any(system.d != 0.0):
        raise ModelError("plants with direct feed-through are not supported")
    if not delays:
        return {}

    a, b = system.a, system.b
    n, m = system.n_states, system.n_inputs
    p = system.n_outputs
    block = np.zeros((n + m, n + m))
    block[:n, :n] = a
    block[:n, n:] = b

    splits = []
    block_times = set()
    a_times = set()
    for delay in delays:
        if delay == 0.0:
            splits.append(None)
            block_times.add(h)
            continue
        d_steps = max(1, math.ceil(delay / h - 1e-12))
        tau_prime = delay - (d_steps - 1) * h
        if tau_prime <= 0.0:  # numerical guard when delay is an exact multiple
            tau_prime = h
        splits.append((d_steps, tau_prime))
        block_times.add(h)
        if h - tau_prime != 0.0:
            block_times.add(h - tau_prime)
        block_times.add(tau_prime)
        a_times.add(h - tau_prime)
    block_times = sorted(block_times)
    a_times = sorted(a_times)
    exponentials = expm_stack(
        [block * t for t in block_times] + [a * t for t in a_times]
    )
    big = dict(zip(block_times, exponentials[: len(block_times)]))
    phi_tails = dict(zip(a_times, exponentials[len(block_times) :]))

    def gamma_of(t: float) -> np.ndarray:
        if t == 0.0:
            return np.zeros((n, m))
        return big[t][:n, n:]

    groups: dict = {}
    for k, split in enumerate(splits):
        groups.setdefault(0 if split is None else split[0], []).append(k)

    phi = big[h][:n, :n]
    stacks: dict = {}
    for d_steps, indices in groups.items():
        g = len(indices)
        if d_steps == 0:
            stacks[d_steps] = (
                indices,
                np.broadcast_to(phi, (g, n, n)),
                np.broadcast_to(big[h][:n, n:], (g, n, m)),
                np.broadcast_to(system.c, (g, p, n)),
                np.broadcast_to(system.d, (g, p, m)),
            )
            continue
        taus = [splits[k][1] for k in indices]
        gamma0 = np.stack([gamma_of(h - t) for t in taus])
        gamma1 = np.stack([phi_tails[h - t] for t in taus]) @ np.stack(
            [gamma_of(t) for t in taus]
        )
        size = n + d_steps * m
        a_aug = np.zeros((g, size, size))
        b_aug = np.zeros((g, size, m))
        a_aug[:, :n, :n] = phi
        a_aug[:, :n, n : n + m] = gamma1
        if d_steps >= 2:
            a_aug[:, :n, n + m : n + 2 * m] = gamma0
            for j in range(d_steps - 1):
                a_aug[
                    :,
                    n + j * m : n + (j + 1) * m,
                    n + (j + 1) * m : n + (j + 2) * m,
                ] = np.eye(m)
            b_aug[:, n + (d_steps - 1) * m :, :] = np.eye(m)
        else:
            b_aug[:, :n, :] = gamma0
            b_aug[:, n:, :] = np.eye(m)
        c_aug = np.zeros((g, p, size))
        c_aug[:, :, :n] = system.c
        stacks[d_steps] = (
            indices,
            a_aug,
            b_aug,
            c_aug,
            np.zeros((g, p, m)),
        )
    return stacks


def held_input_weights(a: np.ndarray, b: np.ndarray, h: float, delay: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(Phi, Gamma1, Gamma0)`` for one period with fractional delay.

    Helper shared by the discretisation above and by the sampled cost
    computation, for delays within one period (``0 <= delay <= h``):
    during ``[0, delay)`` the *old* input acts (weight ``Gamma1``), during
    ``[delay, h)`` the *new* one (weight ``Gamma0``).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if not 0.0 <= delay <= h:
        raise DimensionError(f"delay must lie in [0, {h}], got {delay}")
    phi, _ = _phi_gamma(a, b, h)
    phi_tail = expm(a * (h - delay))
    _, gamma_head = _phi_gamma(a, b, delay)
    _, gamma_tail = _phi_gamma(a, b, h - delay)
    return phi, phi_tail @ gamma_head, gamma_tail
