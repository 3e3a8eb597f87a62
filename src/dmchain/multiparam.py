"""Joint-estimation layer: QFI matrix, Uhlmann compatibility, sloppiness.

The QFI matrix over (J, gamma, D) comes from one quadrature pass and the
closed block algebra of :mod:`dmchain.fisher`, the same algebra that gives
the single-parameter QFI on its diagonal.  For this family the state and
its derivatives are real symmetric, so the SLDs are real and the Uhlmann
matrix vanishes identically; it is returned as exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .chain import PARAM_TAGS, ChainParams, _derivative_guard, chain_point
from .fisher import _block_pair
from .quadrature import DEFAULT_QUAD, QuadratureConfig

__all__ = [
    "QfiMatrix",
    "UhlmannMatrix",
    "SloppinessReport",
    "SingularInformation",
    "CONDITION_FLOOR",
    "qfi_matrix",
    "uhlmann_matrix",
    "qfim_det",
    "matrix_crb",
]

# Below this eigenvalue ratio the information matrix is treated as
# singular and no covariance bound is produced.
CONDITION_FLOOR = 1e-10

_SYM_TOL = 1e-10
_PSD_TOL = 1e-9


class SingularInformation(RuntimeError):
    """Information matrix too ill-conditioned to invert meaningfully."""


@dataclass(frozen=True)
class QfiMatrix:
    """3x3 quantum Fisher information matrix over (J, gamma, D)."""

    matrix: np.ndarray
    tags: Tuple[str, ...] = PARAM_TAGS

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("expected a 3x3 matrix")
        scale = max(np.abs(m).max(), 1.0)
        if np.abs(m - m.T).max() > _SYM_TOL * scale:
            raise ValueError("information matrix is not symmetric")
        if np.linalg.eigvalsh(0.5 * (m + m.T)).min() < -_PSD_TOL * scale:
            raise ValueError("information matrix has a negative direction")
        object.__setattr__(self, "matrix", 0.5 * (m + m.T))

    def entry(self, mu: str, nu: str) -> float:
        return float(self.matrix[self.tags.index(mu), self.tags.index(nu)])


@dataclass(frozen=True)
class UhlmannMatrix:
    """Antisymmetric SLD-commutator expectations, stored signed."""

    matrix: np.ndarray
    tags: Tuple[str, ...] = PARAM_TAGS

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("expected a 3x3 matrix")
        # enforce exact antisymmetry; the diagonal is zero by definition
        object.__setattr__(self, "matrix", 0.5 * (m - m.T))

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.matrix)


@dataclass(frozen=True)
class SloppinessReport:
    """Determinant and spectrum of the QFI matrix at one point."""

    det: float
    eigenvalues: np.ndarray  # sorted descending
    condition_ratio: float   # smallest / largest

    def __post_init__(self) -> None:
        ev = np.sort(np.asarray(self.eigenvalues, dtype=float))[::-1]
        object.__setattr__(self, "eigenvalues", ev)


def qfi_matrix(
    params: ChainParams,
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> QfiMatrix:
    """H_{mu nu} = Tr[rho (L_mu L_nu + L_nu L_mu) / 2], in closed block form."""
    point = chain_point(params, PARAM_TAGS, quad)
    outer, inner = _block_pair(point.state, point.dstate, PARAM_TAGS)
    return QfiMatrix(matrix=outer + inner)


def uhlmann_matrix(params: ChainParams) -> UhlmannMatrix:
    """U_{mu nu} = Tr[rho (L_mu L_nu - L_nu L_mu) / 2].

    The state and its derivatives are real symmetric for every point of
    the family, so the SLDs are real and each U_{mu nu} is the imaginary
    part of a real trace: the matrix is exactly zero wherever the QFI
    matrix is defined.  Raises CriticalPoint where :func:`qfi_matrix` does.
    """
    _derivative_guard(params)
    return UhlmannMatrix(matrix=np.zeros((3, 3)))


def _spectrum(matrices: np.ndarray):
    """Ascending eigenvalues, determinant and smallest / largest eigenvalue
    ratio of symmetric 3x3 matrices stacked on the leading axes.

    The matrices are positive semidefinite, sums of outer products with
    nonnegative weights, so an eigenvalue below 0 is roundoff and is
    clipped to 0; the determinant and ratio are then never negative.
    """
    ev = np.maximum(np.linalg.eigvalsh(matrices), 0.0)
    top = ev[..., -1]
    ratio = np.divide(ev[..., 0], top, out=np.zeros(top.shape), where=top > 0.0)
    return ev, np.prod(ev, axis=-1), ratio


def _sloppiness(qfim: QfiMatrix) -> SloppinessReport:
    ev, det, ratio = _spectrum(qfim.matrix)
    return SloppinessReport(
        det=float(det),
        eigenvalues=ev[::-1].copy(),
        condition_ratio=float(ratio),
    )


def qfim_det(
    params: ChainParams,
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> SloppinessReport:
    return _sloppiness(qfi_matrix(params, quad))


def matrix_crb(qfim: QfiMatrix, shots: int = 1) -> np.ndarray:
    """Covariance lower bound H^{-1} / shots.

    Refuses near-singular matrices: inverting a sloppy QFIM returns
    noise, and the interesting statement is the singularity itself.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    ev = np.linalg.eigvalsh(qfim.matrix)
    top = float(ev.max())
    if top <= 0.0 or ev.min() / top < CONDITION_FLOOR:
        raise SingularInformation(
            "QFI matrix condition ratio below %.0e; no covariance bound"
            % CONDITION_FLOOR
        )
    cov = np.linalg.inv(qfim.matrix) / shots
    return 0.5 * (cov + cov.T)
