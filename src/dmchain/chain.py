"""Zero-temperature observables of the anisotropic XY chain with
antisymmetric (Dzyaloshinskii-Moriya) exchange, in the thermodynamic limit.

Couplings are measured in units of the transverse field, so the chain is
critical at J = +/-1.  Nearest-neighbour correlators are closed-form
momentum integrals over [0, pi]; both the correlators and their derivatives
with respect to the couplings are obtained by integrating analytic
integrands with the adaptive Gauss-Kronrod engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .quadrature import (DEFAULT_QUAD, QuadratureConfig, QuadratureFailure,
                         integrate_many, integrate_points)

__all__ = [
    "PARAM_TAGS",
    "POSITIVITY_TOL",
    "ChainParams",
    "Correlators",
    "TwoSpinXState",
    "XStateDerivative",
    "ChainPoints",
    "CriticalPoint",
    "PositivityViolation",
    "delta",
    "x_state",
    "x_matrix",
    "chain_point",
    "chain_points",
]

PARAM_TAGS = ("J", "gamma", "D")

POSITIVITY_TOL = 1e-9
_CRIT_EPS = 1e-9
_PI = math.pi


class CriticalPoint(ValueError):
    """Evaluation requested where a coupling derivative integral diverges."""


class PositivityViolation(RuntimeError):
    """Reduced two-spin state fails positivity beyond numerical tolerance."""


@dataclass(frozen=True)
class ChainParams:
    """Couplings of the chain in units of the transverse field."""

    J: float
    gamma: float
    D: float

    def __post_init__(self) -> None:
        for name in ("J", "gamma", "D"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if abs(self.gamma) > 1.0:
            raise ValueError(f"anisotropy must satisfy |gamma| <= 1, got {self.gamma!r}")

    def replace(self, **kw: float) -> "ChainParams":
        d = {"J": self.J, "gamma": self.gamma, "D": self.D}
        d.update(kw)
        return ChainParams(**d)


@dataclass(frozen=True)
class Correlators:
    """Single-site magnetization and nearest-neighbour correlators.

    Also reused for their coupling derivatives, in which case each field
    holds the derivative of the corresponding correlator.
    """

    mz: float
    gxx: float
    gyy: float
    gzz: float


def x_matrix(a_plus: float, a_minus: float, c: float, b_plus: float, b_minus: float) -> np.ndarray:
    """Assemble the 4x4 X-form matrix from its five independent entries."""
    return np.array(
        [
            [a_plus, 0.0, 0.0, b_minus],
            [0.0, c, b_plus, 0.0],
            [0.0, b_plus, c, 0.0],
            [b_minus, 0.0, 0.0, a_minus],
        ]
    )


@dataclass(frozen=True)
class TwoSpinXState:
    """Reduced state of two neighbouring spins in the magnetization basis."""

    a_plus: float
    a_minus: float
    c: float
    b_plus: float
    b_minus: float

    def matrix(self) -> np.ndarray:
        return x_matrix(self.a_plus, self.a_minus, self.c, self.b_plus, self.b_minus)

    def probabilities(self) -> np.ndarray:
        """Outcome probabilities of the two-spin magnetization measurement."""
        p = np.array([self.a_plus, self.c, self.c, self.a_minus])
        return np.clip(p, 0.0, None)


@dataclass(frozen=True)
class XStateDerivative:
    """Entrywise derivative of the X state with respect to one coupling."""

    a_plus: float
    a_minus: float
    c: float
    b_plus: float
    b_minus: float

    def matrix(self) -> np.ndarray:
        return x_matrix(self.a_plus, self.a_minus, self.c, self.b_plus, self.b_minus)

    def probabilities(self) -> np.ndarray:
        return np.array([self.a_plus, self.c, self.c, self.a_minus])


def delta(params: ChainParams, phi):
    """Dispersion-like kernel; its zeros at |J| = 1 mark criticality."""
    s = np.sin(phi)
    bracket = params.J * (np.cos(phi) - 2.0 * params.D * s) - 1.0
    return np.sqrt(bracket * bracket + (params.J * params.gamma * s) ** 2)


def _validate_tags(tags: Sequence[str]) -> Tuple[str, ...]:
    tags = tuple(tags)
    for t in tags:
        if t not in PARAM_TAGS:
            raise ValueError(f"unknown parameter tag {t!r}; expected one of {PARAM_TAGS}")
    return tags


def _derivative_guard(params: ChainParams) -> None:
    # Derivative integrands carry 1/Delta^3 and stop being integrable when
    # Delta develops a zero: at J = +/-1 for gamma != 0, and on the whole
    # band |J| sqrt(1 + 4 D^2) >= 1 for gamma = 0.
    if params.gamma == 0.0:
        if abs(params.J) * math.hypot(1.0, 2.0 * params.D) >= 1.0 - _CRIT_EPS:
            raise CriticalPoint(
                f"coupling derivatives diverge for gamma = 0 at {params!r}"
            )
    elif abs(abs(params.J) - 1.0) <= _CRIT_EPS:
        raise CriticalPoint(
            f"coupling derivatives diverge at the critical point |J| = 1 ({params!r})"
        )


def _integrand_rows(J, g, D, tags: Tuple[str, ...], phi: np.ndarray) -> np.ndarray:
    """Integrand stack at nodes phi; J, g, D are scalars or per-node arrays."""
    s = np.sin(phi)
    cp = np.cos(phi)
    k = cp - 2.0 * D * s
    u = J * k - 1.0
    dl = np.sqrt(u * u + (J * g * s) ** 2)
    inv = 1.0 / dl
    inv3 = inv * inv * inv
    s2 = s * s
    rows = [
        (-1.0 / _PI) * u * inv,        # magnetization
        (-1.0 / _PI) * cp * u * inv,   # even part of the pair correlator
        (g / _PI) * J * s2 * inv,      # odd (anisotropy) part
    ]
    for tag in tags:
        if tag == "J":
            du = J * g * g * s2 * inv3            # d(u/Delta)/dJ
            dq = -g * u * inv3                    # d(gamma J/Delta)/dJ
        elif tag == "gamma":
            du = -u * J * J * g * s2 * inv3
            dq = J * u * u * inv3
        else:
            du = -2.0 * J ** 3 * g * g * s2 * s * inv3
            dq = 2.0 * J * J * g * s * u * inv3
        rows.append((-1.0 / _PI) * du)
        rows.append((-1.0 / _PI) * cp * du)
        rows.append((1.0 / _PI) * s2 * dq)
    return np.stack(rows)


def _integrand_stack(params: ChainParams, tags: Tuple[str, ...]) -> Callable[[np.ndarray], np.ndarray]:
    J, g, D = params.J, params.gamma, params.D

    def f(phi: np.ndarray) -> np.ndarray:
        return _integrand_rows(J, g, D, tags, phi)

    return f


def _assemble(mz: float, even: float, odd: float) -> Correlators:
    gxx = even - odd
    gyy = even + odd
    gzz = mz * mz - gyy * gxx
    return Correlators(mz=mz, gxx=gxx, gyy=gyy, gzz=gzz)


def _assemble_derivative(corr: Correlators, dmz: float, deven: float, dodd: float) -> Correlators:
    dgxx = deven - dodd
    dgyy = deven + dodd
    dgzz = 2.0 * corr.mz * dmz - (dgyy * corr.gxx + corr.gyy * dgxx)
    return Correlators(mz=dmz, gxx=dgxx, gyy=dgyy, gzz=dgzz)


def _state_from(corr: Correlators) -> TwoSpinXState:
    # gzz = mz^2 - gxx gyy; written out, the small entries near J = 0
    # (a_minus ~ J^2) keep their digits instead of cancelling against 1.
    gxy = corr.gxx * corr.gyy
    a_plus = 0.25 * ((1.0 + corr.mz) ** 2 - gxy)
    a_minus = 0.25 * ((1.0 - corr.mz) ** 2 - gxy)
    c = 0.25 * (1.0 - corr.gzz)
    b_plus = 0.25 * (corr.gxx + corr.gyy)
    b_minus = 0.25 * (corr.gxx - corr.gyy)
    state = TwoSpinXState(a_plus, a_minus, c, b_plus, b_minus)
    _check_positivity(state)
    return state


def _dstate_from(dcorr: Correlators) -> XStateDerivative:
    return XStateDerivative(
        a_plus=0.25 * (2.0 * dcorr.mz + dcorr.gzz),
        a_minus=0.25 * (-2.0 * dcorr.mz + dcorr.gzz),
        c=-0.25 * dcorr.gzz,
        b_plus=0.25 * (dcorr.gxx + dcorr.gyy),
        b_minus=0.25 * (dcorr.gxx - dcorr.gyy),
    )


def _check_positivity(state: TwoSpinXState) -> None:
    """Raise PositivityViolation; a state of arrays reports its first bad point."""
    tol = POSITIVITY_TOL
    defects = (
        ("negative diagonal entry",
         (state.a_plus < -tol) | (state.a_minus < -tol) | (state.c < -tol)),
        ("outer coherence exceeds its diagonal bound",
         state.b_minus ** 2 > state.a_plus * state.a_minus + tol),
        ("inner coherence exceeds its diagonal bound",
         abs(state.b_plus) > state.c + tol),
    )
    if np.ndim(state.a_plus):
        bad_points = np.flatnonzero(np.any([hit for _, hit in defects], axis=0))
        if bad_points.size:
            i = bad_points[0]
            _check_positivity(TwoSpinXState(*(
                float(getattr(state, f.name)[i]) for f in fields(state))))
        return
    bad = [message for message, hit in defects if hit]
    if bad:
        raise PositivityViolation(
            "; ".join(bad) + f" (beyond {tol:g}; likely quadrature inaccuracy): {state!r}"
        )


@dataclass(frozen=True)
class ChainPoints:
    """Correlators, X states and requested derivatives of a family of points.

    From :func:`chain_points`, every field of ``corr``, ``state`` and each
    ``dcorr`` and ``dstate`` entry is an array over the points, in the
    order of ``J``, ``gamma`` and ``D``; from :func:`chain_point`, all of
    them are floats.
    """

    J: np.ndarray
    gamma: np.ndarray
    D: np.ndarray
    corr: Correlators
    state: TwoSpinXState
    dcorr: Dict[str, Correlators]
    dstate: Dict[str, XStateDerivative]


def _evaluated(J, gamma, D, tags: Tuple[str, ...], vals) -> ChainPoints:
    """Correlators, state and derivatives from the integrals of the stack."""
    corr = _assemble(vals[0], vals[1], vals[2])
    dcorr = {tag: _assemble_derivative(corr, *vals[3 + 3 * i : 6 + 3 * i])
             for i, tag in enumerate(tags)}
    dstate = {tag: _dstate_from(d) for tag, d in dcorr.items()}
    return ChainPoints(J, gamma, D, corr, _state_from(corr), dcorr, dstate)


def chain_point(
    params: ChainParams,
    tags: Sequence[str] = (),
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> ChainPoints:
    """Evaluate correlators, the X state and derivatives in one pass.

    Derivative integrands are differentiated analytically under the
    integral; a tag at a divergence of its integral raises CriticalPoint.
    """
    tags = _validate_tags(tags)
    if tags:
        _derivative_guard(params)
    vals, _ = integrate_many(_integrand_stack(params, tags), 0.0, _PI, quad)
    return _evaluated(params.J, params.gamma, params.D, tags, vals)


def chain_points(
    J,
    gamma,
    D,
    tags: Sequence[str] = (),
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> ChainPoints:
    """:func:`chain_point` for a family of points in one batched quadrature.

    J, gamma and D broadcast against each other to a 1-D family.  Each
    point is refined on its own panels to the same tolerance as in
    :func:`chain_point`, so the values agree with it to well within that
    tolerance and do not depend on the rest of the family.  Raises what
    :func:`chain_point` raises at the first offending point; a
    QuadratureFailure names the couplings of the point that failed.
    """
    tags = _validate_tags(tags)
    J, gamma, D = (np.array(a, dtype=float).ravel()
                   for a in np.broadcast_arrays(J, gamma, D))
    # Cheap superset of the points the scalar checks could reject; only
    # those are rebuilt as ChainParams, which raise with the scalar message.
    suspect = ~(np.isfinite(J) & np.isfinite(gamma) & np.isfinite(D)
                & (np.abs(gamma) <= 1.0))
    if tags:
        suspect |= (gamma == 0.0) | (np.abs(np.abs(J) - 1.0) <= 2.0 * _CRIT_EPS)
    for i in np.flatnonzero(suspect):
        params = ChainParams(float(J[i]), float(gamma[i]), float(D[i]))
        if tags:
            _derivative_guard(params)

    def f(phi: np.ndarray, owner: np.ndarray) -> np.ndarray:
        return _integrand_rows(J[owner], gamma[owner], D[owner], tags, phi)

    try:
        vals, _ = integrate_points(f, J.size, 0.0, _PI, quad)
    except QuadratureFailure as exc:
        i = exc.point
        raise QuadratureFailure(
            f"{exc} (J = {J[i]:g}, gamma = {gamma[i]:g}, D = {D[i]:g})", i
        ) from None
    return _evaluated(J, gamma, D, tags, vals)


def x_state(params: ChainParams, quad: QuadratureConfig = DEFAULT_QUAD) -> TwoSpinXState:
    """Reduced two-spin state; raises PositivityViolation if invalid."""
    return chain_point(params, (), quad).state
