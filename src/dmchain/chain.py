"""Zero-temperature observables of the anisotropic XY chain with
antisymmetric (Dzyaloshinskii-Moriya) exchange, in the thermodynamic limit.

Couplings are measured in units of the transverse field, so the chain is
critical at J = +/-1.  Nearest-neighbour correlators are closed-form
momentum integrals over [0, pi]; both the correlators and their derivatives
with respect to the couplings are obtained by integrating analytic
integrands with the adaptive Gauss-Kronrod engine.  The two entry points,
:func:`chain_point` (one point) and :func:`chain_points` (a family), run
the same refinement loop, so a point gets the same bits from either.
A coupling derivative is held in the type of the quantity it differentiates:
:class:`Correlators` for the correlators, :class:`TwoSpinXState` for the
state.  Every pass starts on a mesh graded toward the endpoint where the
integrands peak near criticality (see :func:`chain_point`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, Sequence, Tuple

import numpy as np

from .quadrature import (DEFAULT_QUAD, QuadratureConfig, QuadratureFailure,
                         integrate_points)

__all__ = [
    "PARAM_TAGS",
    "POSITIVITY_TOL",
    "ChainParams",
    "Correlators",
    "TwoSpinXState",
    "ChainPoints",
    "CriticalPoint",
    "PositivityViolation",
    "x_state",
    "chain_point",
    "chain_points",
]

PARAM_TAGS = ("J", "gamma", "D")

POSITIVITY_TOL = 1e-9
_CRIT_EPS = 1e-9
# Bound on (1 + |J|)(1 + 2|D|), which bounds |u|, |J| and |2D|: the integrands'
# largest products (u^2, J^3, J u^2) stay finite and 1/Delta^3 a normal float.
_MAX_SCALE = 1e100
_PI = math.pi

# Start mesh of every quadrature pass: _UNIFORM_PANELS panels on [0, pi],
# the first of them cut by a geometric ladder of rungs _RUNG 2^-k.  The
# deepest rung is the last one above _LADDER_FLOOR: the Kronrod nodes of
# the panel below it keep cos(phi) < 1 in double precision (the smallest
# is 5e-8), so u = J cos(phi) - 1 stays nonzero at J = 1.
_UNIFORM_PANELS = 8
_RUNG = _PI / _UNIFORM_PANELS
_LADDER_FLOOR = 1e-5
_MAX_RUNGS = int(math.log2(_RUNG / _LADDER_FLOOR))


def _start_tables():
    """Start panels of every end and ladder depth, and where along J each
    row starts.  Row ``k + end * (_MAX_RUNGS + 1)`` holds in its ``keep``
    entries the ladder of depth k toward phi = 0 (end 0, J >= 0) or pi,
    innermost first.  The depth rint(log2(_RUNG / max(||J| - 1|,
    _LADDER_FLOOR))), held to [0, _MAX_RUNGS], changes within an ulp or two
    of |J| = 1 -+ _RUNG 2^-(k + 1/2), so each ``breaks`` entry, the first J
    of a stretch of one row, is found exactly on the ulps around that
    guess; ``rows[cap]`` is each stretch's row with the depth at most cap."""
    edges = np.concatenate([[0.0], _RUNG * 2.0 ** -np.arange(_MAX_RUNGS, 0, -1),
                            np.linspace(0.0, _PI, _UNIFORM_PANELS + 1)[1:]])
    lo = np.zeros((2 * (_MAX_RUNGS + 1), edges.size - 1))
    hi, keep = np.zeros_like(lo), np.zeros(lo.shape, dtype=bool)
    for k in range(_MAX_RUNGS + 1):
        n, down = k + _UNIFORM_PANELS, k + _MAX_RUNGS + 1
        lo[k, 1:n] = edges[_MAX_RUNGS - k + 1:-1]
        hi[k, :n] = edges[_MAX_RUNGS - k + 1:]
        lo[down, :n], hi[down, :n] = _PI - hi[k, :n], _PI - lo[k, :n]
        keep[k, :n] = keep[down, :n] = True

    def depth(J):
        near = np.maximum(np.abs(np.abs(J) - 1.0), _LADDER_FLOOR)
        return np.clip(np.rint(np.log2(_RUNG / near)), 0, _MAX_RUNGS)

    offsets = _RUNG * 2.0 ** -(np.arange(_MAX_RUNGS) + 0.5)
    guess = np.concatenate([1.0 - offsets, 1.0 + offsets[::-1]])
    ulps = (guess.view(np.int64)[:, None] + np.arange(-8, 9)).view(np.float64)
    d = depth(ulps)
    up = ulps[np.arange(guess.size), (d != d[:, :1]).argmax(axis=1)]
    # depth(-J) = depth(J): below 0 a stretch starts one ulp nearer 0
    breaks = np.concatenate([-np.nextafter(up, 0.0)[::-1], [0.0], up])
    first = np.concatenate([[breaks[0] - 1.0], breaks])
    rows = (np.minimum(depth(first), np.arange(_MAX_RUNGS + 1)[:, None])
            + (first < 0.0) * (_MAX_RUNGS + 1))
    return lo, hi, keep, keep.sum(axis=1), breaks, rows.astype(np.intp)


(_START_LO, _START_HI, _START_KEEP, _START_COUNTS, _START_BREAKS,
 _START_ROWS) = _start_tables()


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
        if (1.0 + abs(self.J)) * (1.0 + 2.0 * abs(self.D)) > _MAX_SCALE:
            raise ValueError(f"couplings must satisfy (1 + |J|)(1 + 2|D|) <= 1e100, got {self!r}")


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


@dataclass(frozen=True)
class TwoSpinXState:
    """Reduced state of two neighbouring spins in the magnetization basis.

    Also reused for its coupling derivatives, in which case each field
    holds the derivative of the corresponding entry.
    """

    a_plus: float
    a_minus: float
    c: float
    b_plus: float
    b_minus: float

    def populations(self) -> tuple:
        """Diagonal entries (uu, ud, du, dd), unclipped, so a state's may sit up
        to POSITIVITY_TOL below 0 (protocol.outcome_probabilities clips them)."""
        return (self.a_plus, self.c, self.c, self.a_minus)

    def probabilities(self) -> np.ndarray:
        """:meth:`populations` as an array, outcomes on the first axis."""
        return np.array(self.populations())


def _validate_tags(tags: Sequence[str]) -> Tuple[str, ...]:
    tags = tuple(tags)
    for t in tags:
        if t not in PARAM_TAGS:
            raise ValueError(f"unknown parameter tag {t!r}; expected one of {PARAM_TAGS}")
    return tags


def derivative_guard(params: ChainParams) -> None:
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


def refused(J, gamma, D, tags: Tuple[str, ...]):
    """Yield ``(index, exception)`` for each point :func:`chain_point`
    would refuse, in order; J, gamma and D are 1-D float arrays."""
    # Cheap superset of the points the scalar checks could reject; only
    # those are rebuilt as ChainParams, which raise with the scalar message.
    suspect = ~(np.isfinite(J) & np.isfinite(gamma) & np.isfinite(D)
                & (np.abs(gamma) <= 1.0))
    with np.errstate(over="ignore"):
        suspect |= (1.0 + np.abs(J)) * (1.0 + 2.0 * np.abs(D)) > _MAX_SCALE
    if tags:
        suspect |= (gamma == 0.0) | (np.abs(np.abs(J) - 1.0) <= 2.0 * _CRIT_EPS)
    for i in np.flatnonzero(suspect):
        try:
            params = ChainParams(float(J[i]), float(gamma[i]), float(D[i]))
            if tags:
                derivative_guard(params)
        except ValueError as exc:  # invalid couplings or CriticalPoint
            yield int(i), exc


def _integrand_rows(J, g, D, tags: Tuple[str, ...], phi: np.ndarray) -> np.ndarray:
    """Integrand stack at nodes phi; J, g, D are scalars or per-node arrays.

    The rows are written in place into one output array, and the node
    arrays are reused, so a call allocates a few node-sized temporaries
    instead of one per operation; every value is the same product, in the
    same order, as the plain expression in its comment.
    """
    out = np.empty((3 + 3 * len(tags), phi.size))
    s = np.sin(phi)
    cp = np.cos(phi)
    u = 2.0 * D * s                        # u = J (cp - 2 D s) - 1
    np.subtract(cp, u, out=u)
    u *= J
    u -= 1.0
    inv = J * g * s                        # 1 / Delta
    np.square(inv, out=inv)
    inv += u * u
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    inv3 = inv * inv
    inv3 *= inv
    s2 = s * s
    # magnetization, even part of the pair correlator, odd (anisotropy) part
    np.multiply(-1.0 / _PI, u, out=out[0])
    out[0] *= inv
    np.multiply(-1.0 / _PI, cp, out=out[1])
    out[1] *= u
    out[1] *= inv
    np.multiply((g / _PI) * J, s2, out=out[2])
    out[2] *= inv
    for i, tag in enumerate(tags):
        # du = d(u/Delta)/dtag and dq = d(gamma J/Delta)/dtag
        du, row, dq = out[3 + 3 * i:6 + 3 * i]
        if tag == "J":
            np.multiply(J * g * g, s2, out=du)            # J g^2 s2 inv3
            np.multiply(-g, u, out=dq)                    # -g u inv3
        elif tag == "gamma":
            np.negative(u, out=du)                        # -u J J g s2 inv3
            du *= J
            du *= J
            du *= g
            du *= s2
            np.multiply(J, u, out=dq)                     # J u u inv3
            dq *= u
        else:
            np.multiply(-2.0 * J * J * J * g * g, s2, out=du)  # ... s2 s inv3
            du *= s
            np.multiply(2.0 * J * J * g, s, out=dq)       # ... s u inv3
            dq *= u
        du *= inv3
        dq *= inv3
        np.multiply(-1.0 / _PI, cp, out=row)
        row *= du
        du *= -1.0 / _PI
        dq *= (1.0 / _PI) * s2
    return out


def _start_mesh(J: np.ndarray, max_subdivisions: int):
    """Start panels ``(lo, hi, counts)`` of the points with couplings J.

    Near |J| = 1 the integrands peak within about ||J| - 1| of phi = 0
    (J > 0) or phi = pi (J < 0), where Delta vanishes at criticality.
    Each point gets the uniform panels plus the rungs of the ladder toward
    that endpoint down to the rung nearest max(||J| - 1|, _LADDER_FLOOR),
    at most ``max_subdivisions - _UNIFORM_PANELS`` of them, since the
    start panels count against the budget.  Panels are grouped by point,
    the innermost first.
    """
    cap = min(_MAX_RUNGS, max_subdivisions - _UNIFORM_PANELS)
    row = _START_ROWS[cap][np.searchsorted(_START_BREAKS, J, side="right")]
    keep = _START_KEEP[row]
    return _START_LO[row][keep], _START_HI[row][keep], _START_COUNTS[row]


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
    # Squares are products: float ** 2 (libm pow) and an array's ** 2 can
    # round differently, and a point must get the same bits either way.
    gxy = corr.gxx * corr.gyy
    up, down = 1.0 + corr.mz, 1.0 - corr.mz
    a_plus = 0.25 * (up * up - gxy)
    a_minus = 0.25 * (down * down - gxy)
    c = 0.25 * (1.0 - corr.gzz)
    b_plus = 0.25 * (corr.gxx + corr.gyy)
    b_minus = 0.25 * (corr.gxx - corr.gyy)
    state = TwoSpinXState(a_plus, a_minus, c, b_plus, b_minus)
    _check_positivity(state)
    return state


def _dstate_from(dcorr: Correlators) -> TwoSpinXState:
    return TwoSpinXState(
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
         state.b_minus * state.b_minus > state.a_plus * state.a_minus + tol),
        ("inner coherence exceeds its diagonal bound",
         abs(state.b_plus) > state.c + tol),
    )
    if isinstance(state.a_plus, np.ndarray):
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
    broadcast order of the couplings; from :func:`chain_point`, a family
    of one, all of them are floats with the same values.
    """

    corr: Correlators
    state: TwoSpinXState
    dcorr: Dict[str, Correlators]
    dstate: Dict[str, TwoSpinXState]


def _evaluated(tags: Tuple[str, ...], vals) -> ChainPoints:
    """Correlators, state and derivatives from the integrals of the stack."""
    corr = _assemble(vals[0], vals[1], vals[2])
    dcorr = {tag: _assemble_derivative(corr, *vals[3 + 3 * i : 6 + 3 * i])
             for i, tag in enumerate(tags)}
    dstate = {tag: _dstate_from(d) for tag, d in dcorr.items()}
    return ChainPoints(corr, _state_from(corr), dcorr, dstate)


def _integrals(f, J, gamma, D, quad: QuadratureConfig) -> np.ndarray:
    """Integrals of the stack ``f(phi, owner)`` at the points J, gamma, D.

    J is an array; gamma and D only name a failing point's couplings.
    Each point's pass starts on its graded mesh (see :func:`chain_point`);
    a QuadratureFailure names the couplings of the point that failed.
    """
    try:
        vals, _ = integrate_points(f, *_start_mesh(J, quad.max_subdivisions),
                                   quad)
    except QuadratureFailure as exc:
        i = exc.point
        raise QuadratureFailure(
            f"{exc} (J = {J[i]:g}, gamma = {gamma[i]:g}, D = {D[i]:g})", i
        ) from None
    return vals


def chain_point(
    params: ChainParams,
    tags: Sequence[str] = (),
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> ChainPoints:
    """Evaluate correlators, the X state and derivatives in one pass.

    Derivative integrands are differentiated analytically under the
    integral; a tag at a divergence of its integral raises CriticalPoint.

    The pass is the one-point case of :func:`chain_points`, with the same
    values bit for bit and every field a float.  It starts on 8 uniform
    panels on [0, pi] plus a geometric ladder of rungs (pi/8) 2^-k toward
    phi = 0 for J > 0, or phi = pi for J < 0, where the integrands peak
    near criticality.  The ladder reaches down to the rung nearest
    ||J| - 1|, but not below about 1e-5, and its rungs count against
    ``quad.max_subdivisions``: with a budget of 8 panels the start is the
    uniform mesh alone.
    """
    tags = _validate_tags(tags)
    if tags:
        derivative_guard(params)
    J, g, D = params.J, params.gamma, params.D

    def f(phi: np.ndarray, owner: np.ndarray) -> np.ndarray:
        return _integrand_rows(J, g, D, tags, phi)

    vals = _integrals(f, np.array([J]), [g], [D], quad)
    return _evaluated(tags, vals[:, 0].tolist())


def chain_points(
    J,
    gamma,
    D,
    tags: Sequence[str] = (),
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> ChainPoints:
    """:func:`chain_point` for a family of points in one batched quadrature.

    J, gamma and D broadcast against each other to a 1-D family.  Each
    point starts on the same graded mesh as in :func:`chain_point` and is
    refined on its own panels to the same tolerance, so its values equal
    those of :func:`chain_point` bit for bit and do not depend on the rest
    of the family.  Raises what :func:`chain_point` raises at the first
    offending point; a QuadratureFailure names the couplings of the point
    that failed.
    """
    tags = _validate_tags(tags)
    J, gamma, D = (np.array(a, dtype=float).ravel()
                   for a in np.broadcast_arrays(J, gamma, D))
    for _, exc in refused(J, gamma, D, tags):
        raise exc

    def f(phi: np.ndarray, owner: np.ndarray) -> np.ndarray:
        return _integrand_rows(J[owner], gamma[owner], D[owner], tags, phi)

    return _evaluated(tags, _integrals(f, J, gamma, D, quad))


def x_state(params: ChainParams, quad: QuadratureConfig = DEFAULT_QUAD) -> TwoSpinXState:
    """Reduced two-spin state; raises PositivityViolation if invalid."""
    return chain_point(params, (), quad).state
