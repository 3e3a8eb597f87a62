"""Classical and quantum Fisher information of the two-spin probe.

The X structure of the reduced state splits it into two real 2x2 blocks,
also available in a four-vector (Bloch-like) parametrization with Minkowski
signature (+,-,-,-).  The quantum Fisher information is the sum of the two
block contributions, each summed over the block's eigenbasis with the same
support cut as the independent eigendecomposition route over the full 4x4
matrix, which is kept for cross-validation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .chain import (
    ChainParams,
    ChainPoint,
    ChainPoints,
    Correlators,
    TwoSpinXState,
    chain_point,
)
from .quadrature import DEFAULT_QUAD, QuadratureConfig

__all__ = [
    "BlochBlocks",
    "FisherPoint",
    "DivergentInformationWarning",
    "BlockDegenerateWarning",
    "UndefinedSaturationWarning",
    "bloch_blocks",
    "bloch_blocks_derivative",
    "magnetization_fi",
    "qfi_xstate",
    "sld",
    "qfi_eigen",
    "fisher_point",
    "saturation",
]

# Outcomes with probability below P_TOL and derivative below DP_TOL are
# treated as absent from the support and contribute no information.  An
# outcome p = a J^2 touching zero with curvature a <= 1/4 has |dp| below
# 2 sqrt(a P_TOL) <= DP_TOL while p < P_TOL; a larger derivative means p
# crosses zero there and its information diverges.
P_TOL = 1e-12
DP_TOL = 1e-6
# Eigenvalue pairs of the state summing to at most SUPPORT_TOL lie outside
# its support; both QFI routes drop them.
SUPPORT_TOL = 1e-12


class DivergentInformationWarning(RuntimeWarning):
    """An outcome probability vanishes while its derivative does not."""


class BlockDegenerateWarning(RuntimeWarning):
    """A block carries no weight but its derivative does."""


class UndefinedSaturationWarning(RuntimeWarning):
    """Both informations vanish and the ratio has no stable limit."""


@dataclass(frozen=True)
class BlochBlocks:
    """Four-vector parametrization of the two X-state blocks.

    omega describes the outer block (aligned pair sector), omega_tilde the
    inner one; the time-like component is the block weight.
    """

    omega: np.ndarray
    omega_tilde: np.ndarray

    def block_matrices(self) -> Tuple[np.ndarray, np.ndarray]:
        w, wt = self.omega, self.omega_tilde
        outer = 0.5 * np.array([[w[0] + w[3], w[1] - 1j * w[2]],
                                [w[1] + 1j * w[2], w[0] - w[3]]])
        inner = 0.5 * np.array([[wt[0] + wt[3], wt[1] - 1j * wt[2]],
                                [wt[1] + 1j * wt[2], wt[0] - wt[3]]])
        return outer, inner

    def reconstruct(self) -> np.ndarray:
        """Rebuild the 4x4 X matrix (real part; the family is real)."""
        outer, inner = self.block_matrices()
        m = np.zeros((4, 4))
        m[np.ix_([0, 3], [0, 3])] = outer.real
        m[np.ix_([1, 2], [1, 2])] = inner.real
        return m


def _bloch_vectors(corr: Correlators, weight: float) -> BlochBlocks:
    """Four-vectors of both blocks; weight is 1 for a state, 0 for a derivative.

    Correlator fields may be arrays over points, giving (4, n) vectors.
    """
    zero = corr.gzz - corr.gzz  # +0.0, shaped like the correlators
    return BlochBlocks(
        omega=np.array([
            0.5 * (weight + corr.gzz),
            0.5 * (corr.gxx - corr.gyy),
            zero,
            corr.mz,
        ]),
        omega_tilde=np.array([
            0.5 * (weight - corr.gzz),
            0.5 * (corr.gxx + corr.gyy),
            zero,
            zero,
        ]),
    )


def bloch_blocks(state: TwoSpinXState, corr: Correlators) -> BlochBlocks:
    blocks = _bloch_vectors(corr, 1.0)
    omega, omega_tilde = blocks.omega, blocks.omega_tilde
    # The state elements are an exact reshuffling of the same correlators;
    # a mismatch means the caller paired unrelated objects.
    if abs(0.5 * (omega[0] + omega[3]) - state.a_plus) > 1e-9 or abs(
        0.5 * omega_tilde[0] - state.c
    ) > 1e-9:
        raise ValueError("state and correlators describe different points")
    return blocks


def bloch_blocks_derivative(dcorr: Correlators) -> BlochBlocks:
    """Same mapping applied to correlator derivatives (no weight checks)."""
    return _bloch_vectors(dcorr, 0.0)


def _ratio(num, den, floor):
    """num / den where den exceeds floor, else 0; scalars or arrays."""
    if isinstance(den, np.ndarray):
        return np.divide(num, den, out=np.zeros_like(den), where=den > floor)
    return num / den if den > floor else 0.0


def _block_info(p, q, b, dp, dq, db):
    """Information of the real block [[p, b], [b, q]] of the state, whose
    derivative is [[dp, db], [db, dq]].

    Summed pair by pair in the block's eigenbasis as
    2 |<i|d rho|j>|^2 / (lambda_i + lambda_j): a pair whose eigenvalues sum
    to at most SUPPORT_TOL lies outside the support and is dropped, exactly
    as in :func:`qfi_eigen`.  The smaller eigenvalue comes from the
    determinant p q - b^2, which keeps its digits when the block is nearly
    pure.  Scalars or arrays over points.
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
    return (0.5 * _ratio((dw0 + radial) ** 2, s_plus, SUPPORT_TOL)
            + 0.5 * _ratio((dw0 - radial) ** 2, s_minus, SUPPORT_TOL)
            + _ratio(across * across, w0, SUPPORT_TOL))


def _block_pair(state, dstate):
    """Outer and inner block information; fields scalars or arrays.

    A block outside the support whose derivative does not vanish warns.
    """
    out = []
    for p, q, b, dp, dq, db in (
        (state.a_plus, state.a_minus, state.b_minus,
         dstate.a_plus, dstate.a_minus, dstate.b_minus),
        (state.c, state.c, state.b_plus, dstate.c, dstate.c, dstate.b_plus),
    ):
        light = p + q <= SUPPORT_TOL
        if np.any(light) and np.any(light & (
                (abs(dp) > DP_TOL) | (abs(dq) > DP_TOL) | (abs(db) > DP_TOL))):
            warnings.warn(
                "weightless block with nonvanishing derivative; "
                "its divergent contribution is dropped",
                BlockDegenerateWarning,
                stacklevel=3,
            )
        out.append(_block_info(p, q, b, dp, dq, db))
    return out


def _classical_fi(probs: np.ndarray, dprobs: np.ndarray) -> float:
    p = np.clip(probs, 0.0, None)
    fi = 0.0
    for pi, dpi in zip(p, dprobs):
        if pi >= P_TOL:
            fi += dpi * dpi / pi
        elif abs(dpi) >= DP_TOL:
            warnings.warn(
                f"outcome probability {pi:.3e} vanished with derivative {dpi:.3e}; "
                "classical information diverges",
                DivergentInformationWarning,
                stacklevel=3,
            )
            return math.inf
        # else: outcome absent from the support, no contribution
    return float(fi)


def magnetization_fi(
    params: ChainParams,
    wrt: str,
    quad: QuadratureConfig = DEFAULT_QUAD,
    point: Optional[ChainPoint] = None,
) -> float:
    """Fisher information of the two-spin magnetization measurement."""
    if point is None:
        point = chain_point(params, (wrt,), quad)
    return _classical_fi(point.state.probabilities(), point.dstate[wrt].probabilities())


def qfi_xstate(
    params: ChainParams,
    wrt: str,
    quad: QuadratureConfig = DEFAULT_QUAD,
    point: Optional[ChainPoint] = None,
) -> float:
    """Quantum Fisher information as the sum of the two block contributions."""
    if point is None:
        point = chain_point(params, (wrt,), quad)
    outer, inner = _block_pair(point.state, point.dstate[wrt])
    return float(outer + inner)


def _qfi_points(points: ChainPoints, wrt: str) -> np.ndarray:
    """:func:`qfi_xstate` at every point of a batched evaluation.

    Calls no public function of this module, so per-point instrumentation
    of those functions never sees arrays.
    """
    outer, inner = _block_pair(points.state, points.dstate[wrt])
    return outer + inner


def sld(rho: np.ndarray, drho: np.ndarray, tol: float = SUPPORT_TOL) -> np.ndarray:
    """Symmetric logarithmic derivative solving drho = (L rho + rho L)/2.

    Built in the eigenbasis of rho; matrix elements whose eigenvalue sum
    falls below tol are outside the support and are set to zero.
    """
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    num = 2.0 * (v.T.conj() @ drho @ v)
    denom = w[:, None] + w[None, :]
    mask = denom > tol
    core = np.zeros_like(num)
    core[mask] = num[mask] / denom[mask]
    return v @ core @ v.T.conj()


def qfi_eigen(rho: np.ndarray, drho: np.ndarray, tol: float = SUPPORT_TOL) -> float:
    """Quantum Fisher information from the eigendecomposition of rho."""
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    m = v.T.conj() @ drho @ v
    denom = w[:, None] + w[None, :]
    mask = denom > tol
    return float((2.0 * np.abs(m[mask]) ** 2 / denom[mask]).sum())


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
    point: Optional[ChainPoint] = None,
) -> FisherPoint:
    """F, H with its block split, and their ratio, from one quadrature pass."""
    if point is None:
        point = chain_point(params, (wrt,), quad)
    h1, h2 = (float(h) for h in _block_pair(point.state, point.dstate[wrt]))
    h = h1 + h2
    f = _classical_fi(point.state.probabilities(), point.dstate[wrt].probabilities())
    s = f / h if h > P_TOL else math.nan
    return FisherPoint(params=params, wrt=wrt, F=f, H=h, H1=h1, H2=h2, S=s)


def saturation(
    params: ChainParams,
    wrt: str,
    quad: QuadratureConfig = DEFAULT_QUAD,
    point: Optional[ChainPoint] = None,
) -> float:
    """Ratio F/H, with a symmetric-perturbation limit where H vanishes.

    When H <= 1e-12 the ratio is evaluated at the parameter shifted by
    +/-1e-4 along wrt; if the two values agree to 1e-3 their mean is
    returned, otherwise the ratio is undefined (NaN, with a warning).
    """
    fp = fisher_point(params, wrt, quad, point)
    if fp.H > P_TOL:
        return fp.F / fp.H
    step = 1e-4
    ratios = []
    for sgn in (1.0, -1.0):
        shifted = params.replace(**{wrt: getattr(params, wrt) + sgn * step})
        side = fisher_point(shifted, wrt, quad)
        ratios.append(side.F / side.H if side.H > P_TOL else math.nan)
    if all(math.isfinite(r) for r in ratios) and abs(ratios[0] - ratios[1]) <= 1e-3:
        return 0.5 * (ratios[0] + ratios[1])
    warnings.warn(
        f"saturation undefined at {params!r} wrt {wrt}: F and H vanish and the "
        f"perturbed ratios {ratios} do not agree",
        UndefinedSaturationWarning,
        stacklevel=2,
    )
    return math.nan
