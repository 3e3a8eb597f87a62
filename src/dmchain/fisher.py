"""Classical and quantum Fisher information of the two-spin probe.

The X structure of the reduced state splits it into two real 2x2 blocks.
Each block's information is summed pair by pair over its eigenbasis in
closed form: three rank-one terms over the stacked parameter derivatives,
which give the quantum Fisher information matrix over any set of
couplings and, on its diagonal, the single-parameter QFI.  An eigenvalue
pair of the state summing to at most ``SUPPORT_TOL`` lies outside the
support and is dropped.  Every function takes scalars or arrays over
points, so batched evaluations share the same algebra.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

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


class DivergentInformationWarning(RuntimeWarning):
    """An outcome probability vanishes while its derivative does not."""


class BlockDegenerateWarning(RuntimeWarning):
    """A block carries no weight but its derivative does."""


def _ratio(num, den, floor):
    """num / den where den exceeds floor, else 0; den broadcasts against num."""
    if np.ndim(den) == 0:
        return num / den if den > floor else np.zeros(np.shape(num))
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
    Scalars or arrays over points.
    """
    w0 = p + q
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


def _block_pair(state, dstate, tags: Sequence[str]):
    """Outer and inner block information matrices over tags.

    ``dstate`` maps each tag to its X-state derivative; fields are scalars
    or arrays over points, giving (k, k) or (k, k, n) matrices.  A block
    outside the support whose derivative does not vanish warns.
    """
    def stacked(name):
        return np.array([getattr(dstate[t], name) for t in tags])

    out = []
    for p, q, b, dp, dq, db in (
        (state.a_plus, state.a_minus, state.b_minus,
         stacked("a_plus"), stacked("a_minus"), stacked("b_minus")),
        (state.c, state.c, state.b_plus,
         stacked("c"), stacked("c"), stacked("b_plus")),
    ):
        light = p + q <= SUPPORT_TOL
        if (light & ((abs(dp) > DP_TOL) | (abs(dq) > DP_TOL)
                     | (abs(db) > DP_TOL))).any():
            warnings.warn(
                "weightless block with nonvanishing derivative; "
                "its divergent contribution is dropped",
                BlockDegenerateWarning,
                stacklevel=3,
            )
        out.append(_block_info(p, q, b, dp, dq, db))
    return out


def _classical_fi(probs, dprobs):
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
        warnings.warn(
            "an outcome probability vanished with nonvanishing derivative; "
            "classical information diverges",
            DivergentInformationWarning,
            stacklevel=3,
        )
    return np.where(divergent, math.inf, fi)


def _saturation(f, h):
    """F/H where H carries information, else NaN; scalars or arrays."""
    return np.divide(f, h, out=np.full(np.shape(h), math.nan),
                     where=np.asarray(h) > P_TOL)


def magnetization_fi(
    params: ChainParams,
    wrt: str,
    quad: QuadratureConfig = DEFAULT_QUAD,
    point: Optional[ChainPoints] = None,
) -> float:
    """Fisher information of the two-spin magnetization measurement."""
    if point is None:
        point = chain_point(params, (wrt,), quad)
    return float(_classical_fi(point.state.probabilities(),
                               point.dstate[wrt].probabilities()))


def qfi_xstate(
    params: ChainParams,
    wrt: str,
    quad: QuadratureConfig = DEFAULT_QUAD,
    point: Optional[ChainPoints] = None,
) -> float:
    """Quantum Fisher information as the sum of the two block contributions."""
    if point is None:
        point = chain_point(params, (wrt,), quad)
    outer, inner = _block_pair(point.state, point.dstate, (wrt,))
    return float(outer[0, 0] + inner[0, 0])


def _qfi_points(points: ChainPoints, wrt: str) -> np.ndarray:
    """:func:`qfi_xstate` at every point of a batched evaluation.

    Calls no public function of this module, so per-point instrumentation
    of those functions never sees arrays.
    """
    outer, inner = _block_pair(points.state, points.dstate, (wrt,))
    return outer[0, 0] + inner[0, 0]


@dataclass(frozen=True)
class FisherPoint:
    """Classical and quantum information at one coupling point."""

    params: ChainParams
    wrt: str
    F: float
    H: float
    H1: float
    H2: float
    S: float


def fisher_point(
    params: ChainParams,
    wrt: str,
    quad: QuadratureConfig = DEFAULT_QUAD,
    point: Optional[ChainPoints] = None,
) -> FisherPoint:
    """F, H with its block split, and their ratio, from one quadrature pass."""
    if point is None:
        point = chain_point(params, (wrt,), quad)
    outer, inner = _block_pair(point.state, point.dstate, (wrt,))
    h1, h2 = float(outer[0, 0]), float(inner[0, 0])
    h = h1 + h2
    f = float(_classical_fi(point.state.probabilities(),
                            point.dstate[wrt].probabilities()))
    return FisherPoint(params=params, wrt=wrt, F=f, H=h, H1=h1, H2=h2,
                       S=float(_saturation(f, h)))
