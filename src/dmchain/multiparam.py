"""Joint-estimation layer: QFI matrix, Uhlmann compatibility, sloppiness.

The QFI matrix over (J, gamma, D) comes from one quadrature pass and the
closed block algebra of :mod:`dmchain.fisher`, the same algebra that gives
the single-parameter QFI on its diagonal.  It carries its own spectrum
(eigenvalues, determinant and condition ratio), from the one
eigendecomposition that also checks it is positive semidefinite; a
vanishing determinant is the model's sloppiness.  For this family the
state and its derivatives are real symmetric, so the SLDs are real and the
Uhlmann matrix vanishes identically; it is returned as exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import PARAM_TAGS, ChainParams, chain_point, derivative_guard
from .errors import SingularInformation, check_count
from .fisher import block_qfi
from .quadrature import DEFAULT_QUAD, QuadratureConfig

__all__ = [
    "QfiMatrix",
    "UhlmannMatrix",
    "SingularInformation",
    "CONDITION_FLOOR",
    "qfi_matrix",
    "uhlmann_matrix",
    "matrix_crb",
]

# Below this eigenvalue ratio the information matrix is treated as
# singular and no covariance bound is produced.
CONDITION_FLOOR = 1e-10

_SYM_TOL = 1e-10
_PSD_TOL = 1e-9

# CSV columns: QFI matrix upper triangle, Uhlmann matrix strict upper one
QFIM_COLS = tuple(
    "QFIM_%s_%s" % (a, b)
    for i, a in enumerate(PARAM_TAGS) for b in PARAM_TAGS[i:]
)
U_COLS = ("U_J_gamma", "U_J_D", "U_gamma_D")


def spectrum(eigenvalues: np.ndarray):
    """Clipped eigenvalues, determinant and smallest / largest eigenvalue
    ratio from the ascending eigenvalues of symmetric 3x3 matrices, stacked
    on the leading axes.

    The matrices are positive semidefinite, sums of outer products with
    nonnegative weights, so an eigenvalue below 0 is roundoff and is
    clipped to 0; the determinant and ratio are then never negative.
    """
    ev = np.maximum(eigenvalues, 0.0)
    top = ev[..., -1]
    ratio = np.divide(ev[..., 0], top, out=np.zeros(top.shape), where=top > 0.0)
    return ev, np.prod(ev, axis=-1), ratio


@dataclass(frozen=True, eq=False)
class QfiMatrix:
    """3x3 quantum Fisher information matrix over (J, gamma, D).

    ``eigenvalues`` (descending, clipped at 0), ``det`` and
    ``condition_ratio`` (smallest / largest eigenvalue) come from the
    eigendecomposition that checks the matrix is positive semidefinite.
    ``matrix`` and ``eigenvalues`` are read-only, so they stay consistent;
    instances compare by identity.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False)
    det: float = field(init=False)
    condition_ratio: float = field(init=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("expected a 3x3 matrix")
        scale = max(np.abs(m).max(), 1.0)
        if np.abs(m - m.T).max() > _SYM_TOL * scale:
            raise ValueError("information matrix is not symmetric")
        m = 0.5 * (m + m.T)
        ev = np.linalg.eigvalsh(m)
        if ev.min() < -_PSD_TOL * scale:
            raise ValueError("information matrix has a negative direction")
        ev, det, ratio = spectrum(ev)
        ev = ev[::-1]
        m.flags.writeable = ev.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "det", float(det))
        object.__setattr__(self, "condition_ratio", float(ratio))


@dataclass(frozen=True, eq=False)
class UhlmannMatrix:
    """Antisymmetric SLD-commutator expectations, stored signed; instances
    compare by identity."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("expected a 3x3 matrix")
        # enforce exact antisymmetry; the diagonal is zero by definition
        object.__setattr__(self, "matrix", 0.5 * (m - m.T))


def qfi_matrix(
    params: ChainParams,
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> QfiMatrix:
    """H_{mu nu} = Tr[rho (L_mu L_nu + L_nu L_mu) / 2], in closed block form."""
    point = chain_point(params, PARAM_TAGS, quad)
    return QfiMatrix(matrix=block_qfi(point)[0])


def uhlmann_matrix(params: ChainParams) -> UhlmannMatrix:
    """U_{mu nu} = Tr[rho (L_mu L_nu - L_nu L_mu) / 2].

    The state and its derivatives are real symmetric for every point of
    the family, so the SLDs are real and each U_{mu nu} is the imaginary
    part of a real trace: the matrix is exactly zero wherever the QFI
    matrix is defined.  Raises CriticalPoint where :func:`qfi_matrix` does.
    """
    derivative_guard(params)
    return UhlmannMatrix(matrix=np.zeros((3, 3)))


def matrix_crb(qfim: QfiMatrix, shots: int = 1) -> np.ndarray:
    """Covariance lower bound H^{-1} / shots.

    Refuses near-singular matrices: inverting a sloppy QFIM returns
    noise, and the interesting statement is the singularity itself.
    """
    check_count("shots", shots, 1)
    if qfim.condition_ratio < CONDITION_FLOOR:
        raise SingularInformation(
            "QFI matrix condition ratio below %.0e; no covariance bound"
            % CONDITION_FLOOR
        )
    cov = np.linalg.inv(qfim.matrix) / shots
    return 0.5 * (cov + cov.T)
