"""Classical and quantum Fisher information of the two-spin probe.

This module is the package's one information layer: other modules reach
F, H and S = F/H only through it, and only it knows the support cuts
``P_TOL``, ``DP_TOL`` and ``SUPPORT_TOL``.  Besides the exported
per-point functions, it shares four names with the package:

- :func:`classical_fi`, F from outcome probabilities and derivatives as
  arrays over points, outcomes first, summed in numpy; and
  :func:`classical_fi_point`, the same F from the floats of one point,
  summed as floats with the same bits, which keeps a one-point call cheap.
- :func:`block_qfi`, the QFI matrices (H, H1, H2) over the tags of a
  :class:`ChainPoints`.  The X structure splits the reduced state into
  two real 2x2 blocks, outer and inner, each summed pair by pair over its
  eigenbasis in closed form; an eigenvalue pair summing to at most
  ``SUPPORT_TOL`` lies outside the support and is dropped.
- :func:`information`, (F, H, H1, H2, S) for one tag of a ChainPoints,
  with the blocks it evaluated on the way.

They take populations or ChainPoints and run inside the exported
functions, so they stay out of ``__all__``.  Instrumentation that wraps
each exported function (``perfbench/tracer.py``) reads a ChainParams
from each call and counts each call as one request to this layer.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .chain import ChainParams, ChainPoints, chain_point
from .quadrature import DEFAULT_QUAD, QuadratureConfig

__all__ = [
    "FisherPoint",
    "DivergentInformationWarning",
    "BlockDegenerateWarning",
    "magnetization_fi",
    "qfi_xstate",
    "fisher_point",
]

# Outcomes with probability below P_TOL and derivative below DP_TOL are
# treated as absent from the support and contribute no information.  An
# outcome p = a J^2 touching zero with curvature a <= 1/4 has |dp| below
# 2 sqrt(a P_TOL) <= DP_TOL while p < P_TOL; a larger derivative means p
# crosses zero there and its information diverges.
P_TOL = 1e-12
DP_TOL = 1e-6
# Eigenvalue pairs of the state summing to at most SUPPORT_TOL lie outside
# its support and carry no information.
SUPPORT_TOL = 1e-12
_DIVERGENT = ("an outcome probability vanished with nonvanishing derivative; "
              "classical information diverges")


class DivergentInformationWarning(RuntimeWarning):
    """An outcome probability vanishes while its derivative does not."""


class BlockDegenerateWarning(RuntimeWarning):
    """A block carries no weight but its derivative does."""


def _ratio(num, den, floor):
    """num / den where den exceeds floor, else 0; den broadcasts against num."""
    num, den = np.broadcast_arrays(num, den)
    return np.divide(num, den, out=np.zeros(num.shape), where=den > floor)


def _outer(v):
    """Outer product over the leading (parameter) axis of v."""
    return v[:, None] * v[None, :]


def _block_info(p, q, b, dp, dq, db):
    """Information matrix of the real block [[p, b], [b, q]] of the state.

    dp, dq and db stack the block's derivatives over the parameters on
    their first axis.  Summed pair by pair in the block's eigenbasis as
    2 Re <i|d_mu rho|j><j|d_nu rho|i> / (lambda_i + lambda_j): a pair whose
    eigenvalues sum to at most SUPPORT_TOL lies outside the support and
    is dropped.  The smaller eigenvalue comes from the determinant
    p q - b^2, which keeps its digits when the block is nearly pure.
    Scalars or arrays over points.  A block outside the support whose
    derivative does not vanish warns.
    """
    w0 = p + q
    if ((w0 <= SUPPORT_TOL) & ((abs(dp) > DP_TOL) | (abs(dq) > DP_TOL)
                               | (abs(db) > DP_TOL))).any():
        warnings.warn("weightless block with nonvanishing derivative; "
                      "its divergent contribution is dropped",
                      BlockDegenerateWarning, stacklevel=4)
    d = p - q
    r = (d * d + 4.0 * b * b) ** 0.5                # lambda_+ - lambda_-
    s_plus = w0 + r                                 # 2 lambda_+
    s_minus = _ratio(4.0 * (p * q - b * b), s_plus, 0.0)
    dw0 = dp + dq
    # derivative of the Bloch vector along and across v = (2b, d)
    radial = _ratio(d * (dp - dq) + 4.0 * b * db, r, 0.0)
    across = _ratio(2.0 * (b * (dp - dq) - d * db), r, 0.0)
    return (0.5 * _ratio(_outer(dw0 + radial), s_plus, SUPPORT_TOL)
            + 0.5 * _ratio(_outer(dw0 - radial), s_minus, SUPPORT_TOL)
            + _ratio(_outer(across), w0, SUPPORT_TOL))


def block_qfi(points: ChainPoints):
    """QFI matrices (H, H1, H2) over the tags of ``points.dstate``, in order.

    H1 and H2 are the outer and inner block contributions and H their sum;
    each is (k, k) for a point from :func:`chain_point` or (k, k, n) over
    the points of :func:`chain_points`.
    """
    state = points.state
    # the derivative records' fields, each over the tags on its first axis
    da_plus, da_minus, dc, db_plus, db_minus = np.array(
        list(points.dstate.values())).swapaxes(0, 1)
    outer = _block_info(state.a_plus, state.a_minus, state.b_minus,
                        da_plus, da_minus, db_minus)
    inner = _block_info(state.c, state.c, state.b_plus, dc, dc, db_plus)
    return outer + inner, outer, inner


def classical_fi(probs, dprobs):
    """Fisher information of the outcomes on the first axis; arrays over points.

    A point where an outcome vanishes with a nonvanishing derivative
    warns and gets infinite information.
    """
    p = np.maximum(probs, 0.0)
    inside = p >= P_TOL
    fi = np.divide(dprobs * dprobs, p, out=np.zeros(p.shape),
                   where=inside).sum(axis=0)
    divergent = (~inside & (abs(dprobs) >= DP_TOL)).any(axis=0)
    if divergent.any():
        warnings.warn(_DIVERGENT, DivergentInformationWarning, stacklevel=3)
    return np.where(divergent, math.inf, fi)


def classical_fi_point(probs, dprobs) -> float:
    """:func:`classical_fi` of one point from floats, with the same bits:
    skipping its 0.0 terms outside the support changes no sum from 0.0."""
    fi, divergent = 0.0, False
    for p, dp in zip(probs, dprobs):
        if p >= P_TOL:
            fi += dp * dp / p
        elif abs(dp) >= DP_TOL:
            divergent = True
    if divergent:
        warnings.warn(_DIVERGENT, DivergentInformationWarning, stacklevel=3)
        return math.inf
    return fi


def information(points: ChainPoints, wrt: str):
    """``(F, H, H1, H2, S), blocks`` for the tag ``wrt`` of ``points``.

    ``blocks = block_qfi(points)`` spans every tag of ``points``, so a
    caller that also needs the whole matrix evaluates it once.  F takes
    the array route, for one point too; S = F/H where H carries
    information, else NaN.
    """
    blocks = block_qfi(points)
    k = list(points.dstate).index(wrt)
    h, h1, h2 = (m[k, k] for m in blocks)
    f = classical_fi(points.state.probabilities(),
                     points.dstate[wrt].probabilities())
    s = np.divide(f, h, out=np.full(np.shape(h), math.nan),
                  where=np.asarray(h) > P_TOL)
    return (f, h, h1, h2, s), blocks


def magnetization_fi(
    params: ChainParams,
    wrt: str,
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """Fisher information of the two-spin magnetization measurement."""
    point = chain_point(params, (wrt,), quad)
    return classical_fi_point(point.state.populations(),
                              point.dstate[wrt].populations())


def qfi_xstate(
    params: ChainParams,
    wrt: str,
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """Quantum Fisher information as the sum of the two block contributions."""
    return float(block_qfi(chain_point(params, (wrt,), quad))[0][0, 0])


class FisherPoint(NamedTuple):
    """Classical and quantum information at one coupling point."""

    F: float
    H: float
    H1: float
    H2: float
    S: float


def fisher_point(
    params: ChainParams,
    wrt: str,
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> FisherPoint:
    """F, H with its block split, and their ratio, from one quadrature pass."""
    values, _ = information(chain_point(params, (wrt,), quad), wrt)
    return FisherPoint(*map(float, values))
