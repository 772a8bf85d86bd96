"""Linear time-invariant systems substrate.

Provides the minimal-but-complete LTI toolbox the paper's pipeline needs:

* :class:`~repro.lti.statespace.StateSpace` -- continuous- or discrete-time
  state-space models with interconnection, simulation, and frequency
  response.
* :class:`~repro.lti.transferfunction.TransferFunction` -- SISO rational
  transfer functions (the paper specifies its plants this way, e.g. the DC
  servo ``1000 / (s^2 + s)`` of Fig. 4) with conversion to state space.
* :mod:`~repro.lti.discretize` -- zero-order-hold sampling, with support for
  input delays of arbitrary (fractional) length, following Astrom &
  Wittenmark.
* :mod:`~repro.lti.analysis` -- poles, stability predicates, frequency
  responses.
"""

from repro.lti.analysis import (
    dcgain,
    frequency_response,
    is_schur_stable,
    is_hurwitz_stable,
    poles,
    spectral_radius,
)
from repro.lti.discretize import c2d_zoh, c2d_zoh_delay
from repro.lti.statespace import StateSpace
from repro.lti.transferfunction import TransferFunction

__all__ = [
    "StateSpace",
    "TransferFunction",
    "c2d_zoh",
    "c2d_zoh_delay",
    "poles",
    "spectral_radius",
    "is_schur_stable",
    "is_hurwitz_stable",
    "frequency_response",
    "dcgain",
]
