"""Zero-temperature observables of the anisotropic XY chain with
antisymmetric (Dzyaloshinskii-Moriya) exchange, in the thermodynamic limit.

Couplings are measured in units of the transverse field, so the chain is
critical at J = +/-1.  Nearest-neighbour correlators are closed-form
momentum integrals over [0, pi]; both the correlators and their derivatives
with respect to the couplings are obtained by integrating analytic
integrands with the adaptive Gauss-Kronrod engine.  The entry points,
:func:`chain_point` (one point) and :func:`chain_points` (a family), run
the same refinement loop, so a point gets the same bits from either;
:func:`chain_outcome` is a family with a failure per point.
A coupling derivative is held in the type of the quantity it differentiates:
:class:`Correlators` for the correlators, :class:`TwoSpinXState` for the
state.  These records, and the :class:`ChainPoints` that holds them, are
named tuples: immutable, iterated in field order.  Every pass starts on a
mesh graded toward the endpoint where the integrands peak near
criticality, with a coarser tail where the couplings keep
u = J (cos phi - 2 D sin phi) - 1 away from 0 (see :func:`chain_point`):
a row built at import, picked by comparing ||J| - 1| with fixed bounds.
Its panels index one node table, of sin and cos at their Kronrod nodes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import CriticalPoint, PositivityViolation
from .quadrature import (DEFAULT_QUAD, NodeTable, QuadratureConfig,
                         QuadratureFailure, integrate_points)

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
    "chain_outcome",
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
# is 5e-8), so u = J cos(phi) - 1 stays nonzero at J = 1.  A point where
# u cannot vanish starts on the coarse tail instead of the uniform panels
# above the first: the edges _COARSE_EDGES of the uniform ones, pi/8, pi/4,
# pi/2, 3 pi/4 and pi (mirrored for J < 0).  Its rows are those of the
# uniform tail plus _COARSE.
_UNIFORM_PANELS = 8
_RUNG = _PI / _UNIFORM_PANELS
_LADDER_FLOOR = 1e-5
_MAX_RUNGS = int(math.log2(_RUNG / _LADDER_FLOOR))
_COARSE_EDGES = [0, 1, 3, 5, 7]
_COARSE = 2 * (_MAX_RUNGS + 1)

# Floats of estimates a family's pass may start with (512 KB): a larger
# family is integrated in several passes (see :func:`_integrals`).
_PASS_FLOATS = 2 ** 16


def _phi_factors(phi: np.ndarray) -> np.ndarray:
    """sin and cos of the nodes phi, stacked on a new first axis: the
    factors of the integrands that cost a libm call per node.  Their
    products, such as sin^2 or -cos/pi, stay in the integrand: a multiply
    there costs about what gathering a tabulated product would, and a
    table of five factors instead of two measured more peak memory."""
    out = np.empty((2,) + phi.shape)
    np.sin(phi, out=out[0])
    np.cos(phi, out=out[1])
    return out


def _start_tables():
    """Start panels of every tail, end and ladder depth.  Row
    ``k + end * (_MAX_RUNGS + 1) + coarse * _COARSE`` of ``panels`` holds
    in its ``keep`` entries the ladder of depth k toward phi = 0 (end 0,
    J >= 0) or pi, innermost first, then the uniform tail (coarse 0) or
    the coarse one, as ids into the node table of the distinct start
    panels, ``table``, numbered in their order of first use."""
    ladder = (_RUNG * 2.0 ** -np.arange(_MAX_RUNGS, 0, -1)).tolist()
    uniform = np.linspace(0.0, _PI, _UNIFORM_PANELS + 1)[1:].tolist()
    rows = []
    for tail in (uniform, [uniform[i] for i in _COARSE_EDGES]):
        for end in (0, 1):
            for k in range(_MAX_RUNGS + 1):
                edges = [0.0] + ladder[_MAX_RUNGS - k:] + tail
                rows.append([(_PI - hi, _PI - lo) if end else (lo, hi)
                             for lo, hi in zip(edges, edges[1:])])
    ids = {}
    panels = np.zeros((len(rows), max(map(len, rows))), dtype=np.intp)
    keep = np.zeros(panels.shape, dtype=bool)
    for r, row in enumerate(rows):
        panels[r, :len(row)] = [ids.setdefault(p, len(ids)) for p in row]
        keep[r, :len(row)] = True
    table = NodeTable(*zip(*ids), _phi_factors)
    return table, panels, keep, keep.sum(axis=1)


_START_TABLE, _START_PANELS, _START_KEEP, _START_COUNTS = _start_tables()
# The rung midpoints _RUNG 2^-(k + 1/2), k < _MAX_RUNGS, ascending: a
# point's ladder depth is the number of them at or above ||J| - 1|.
_DEPTH_BOUNDS = tuple(
    (_RUNG * 2.0 ** -(np.arange(_MAX_RUNGS, 0, -1) - 0.5)).tolist())
# Per row its panel ids and count, for one point, read-only since every
# pass shares them.
_START_MESHES = tuple(
    (_START_PANELS[r][_START_KEEP[r]], _START_COUNTS[r:r + 1])
    for r in range(_START_PANELS.shape[0]))
for _panels, _counts in _START_MESHES:
    _panels.flags.writeable = _counts.flags.writeable = False
del _panels, _counts


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


class Correlators(NamedTuple):
    """Single-site magnetization and nearest-neighbour correlators.

    Also reused for their coupling derivatives, in which case each field
    holds the derivative of the corresponding correlator.
    """

    mz: float
    gxx: float
    gyy: float
    gzz: float


class TwoSpinXState(NamedTuple):
    """Reduced state of two neighbouring spins in the magnetization basis.

    Also reused for its coupling derivatives, in which case each field
    holds the derivative of the corresponding entry.  As a tuple it is the
    five fields in this order; :meth:`populations` is the diagonal.
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


def _refused(J, gamma, D, tags: Tuple[str, ...]):
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


def _product(*factors):
    """The factors multiplied left to right: a float if they are floats,
    else one array, updated in place, with no temporary besides it."""
    p = factors[0] * factors[1]
    for factor in factors[2:]:
        p *= factor
    return p


def _integrand_rows(J, g, D, tags: Tuple[str, ...], rows: np.ndarray) -> np.ndarray:
    """Integrand stack at the nodes of some panels, from their node-table
    rows: the :func:`_phi_factors` of those nodes, shape (2, panels, 15).
    J, g, D are floats, or arrays that broadcast against a row: a float
    for a coupling the whole family shares, and a node-shaped
    (panels, 15) array for one that varies, so each product is one flat
    loop over the nodes.

    sin and cos come from the table, the same libm call on the same node
    as when taken here, and each coupling factor is the same product of
    the couplings, per family or per node; so every value is the same
    product, in the same order, as the plain expression in its comment,
    whatever the couplings' shape.  The rows are written in place into one
    output array, the node arrays are reused and a product of couplings
    that vary is built in one array (:func:`_product`), so a call
    allocates a few node-sized temporaries instead of one per operation.
    """
    s, cp = rows[0], rows[1]      # indexing: iterating an array costs more
    out = np.empty((3 + 3 * len(tags),) + s.shape)
    u = 2.0 * D * s                        # u = J (cp - 2 D s) - 1
    np.subtract(cp, u, out=u)
    u *= J
    u -= 1.0
    inv = J * g * s                        # 1 / Delta
    np.square(inv, out=inv)
    inv += u * u
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    s2 = s * s
    # magnetization, even part of the pair correlator, odd (anisotropy) part
    np.multiply(-1.0 / _PI, u, out=out[0])
    out[0] *= inv
    np.multiply(-1.0 / _PI, cp, out=out[1])
    out[1] *= u
    out[1] *= inv
    np.multiply((g / _PI) * J, s2, out=out[2])
    out[2] *= inv
    if tags:
        inv3 = inv * inv
        inv3 *= inv
    del inv                 # the derivative rows need only inv3
    for i, tag in enumerate(tags):
        # du = d(u/Delta)/dtag and dq = d(gamma J/Delta)/dtag
        du, row, dq = out[3 + 3 * i], out[4 + 3 * i], out[5 + 3 * i]
        if tag == "J":
            np.multiply(_product(J, g, g), s2, out=du)    # J g^2 s2 inv3
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
            np.multiply(_product(-2.0, J, J, J, g, g), s2, out=du)
            du *= s                                       # ... s2 s inv3
            np.multiply(_product(2.0, J, J, g), s, out=dq)  # ... s u inv3
            dq *= u
        du *= inv3
        dq *= inv3
        np.multiply(-1.0 / _PI, cp, out=row)
        row *= du
        du *= -1.0 / _PI
        dq *= (1.0 / _PI) * s2
    return out


def _start_mesh(J, D, max_subdivisions: int):
    """Start panels ``(panels, counts)`` of the points with couplings J and
    D, arrays, or numbers for one point, as row ids into ``_START_TABLE``.

    Near |J| = 1 the integrands peak within about ||J| - 1| of phi = 0
    (J > 0) or phi = pi (J < 0), where Delta vanishes at criticality.
    Each point gets the uniform panels plus the rungs of the ladder toward
    that endpoint down to the rung nearest max(||J| - 1|, _LADDER_FLOOR),
    at most ``max_subdivisions - _UNIFORM_PANELS`` of them, since the
    start panels count against the budget.  Panels are grouped by point,
    the innermost first.

    Where |J| (1 + 2|D|) < 1, u = J (cos phi - 2 D sin phi) - 1 keeps
    |u| >= 1 - |J| (1 + 2|D|) > 0 on [0, pi], so no integrand has a step,
    and above the first uniform panel 4 coarse panels replace the other 7.
    Near the first panel the ladder stays: u comes within 1 - |J| of 0 at
    phi = 0 (J > 0) or pi.

    The depth is the number of rung midpoints ``_DEPTH_BOUNDS`` at or
    above ||J| - 1| among the ``cap`` largest: ``bisect`` counts them for a
    number, without numpy calls on a 1-element array, and one
    ``np.searchsorted`` for an array.  Both make the same float
    comparisons, ``abs`` being numpy's on an array, so a point gets the
    same row either way.
    """
    cap = min(_MAX_RUNGS, max_subdivisions - _UNIFORM_PANELS)
    coarse = abs(J) * (1.0 + 2.0 * abs(D)) < 1.0
    near = abs(abs(J) - 1.0)
    if not isinstance(J, np.ndarray):
        depth = _MAX_RUNGS - bisect.bisect_left(_DEPTH_BOUNDS, near,
                                                _MAX_RUNGS - cap)
        return _START_MESHES[depth + (J < 0.0) * (_MAX_RUNGS + 1)
                             + coarse * _COARSE]
    row = cap - np.searchsorted(_DEPTH_BOUNDS[_MAX_RUNGS - cap:], near)
    row += (J < 0.0) * (_MAX_RUNGS + 1) + coarse * _COARSE
    return _START_PANELS[row][_START_KEEP[row]], _START_COUNTS[row]


def _defects(state: TwoSpinXState):
    """Each positivity defect, and whether the state (or each point) has it."""
    tol = POSITIVITY_TOL
    return (
        ("negative diagonal entry",
         (state.a_plus < -tol) | (state.a_minus < -tol) | (state.c < -tol)),
        ("outer coherence exceeds its diagonal bound",
         state.b_minus * state.b_minus > state.a_plus * state.a_minus + tol),
        ("inner coherence exceeds its diagonal bound",
         abs(state.b_plus) > state.c + tol),
    )


def _check_positivity(state: TwoSpinXState) -> None:
    """Raise PositivityViolation if a state of floats is not positive."""
    bad = [message for message, hit in _defects(state) if hit]
    if bad:
        raise PositivityViolation(
            "; ".join(bad) + f" (beyond {POSITIVITY_TOL:g}; likely quadrature "
            f"inaccuracy): {state!r}"
        )


def _violations(state: TwoSpinXState):
    """Yield ``(k, PositivityViolation)`` for each point k of a state of
    arrays that is not positive, in order."""
    bad = np.flatnonzero(np.any([hit for _, hit in _defects(state)], axis=0))
    for k in bad.tolist():
        try:
            _check_positivity(state._make(float(a[k]) for a in state))
        except PositivityViolation as exc:
            yield k, exc


class ChainPoints(NamedTuple):
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
    """Correlators, state and derivatives from the integrals of the stack:
    per tag, the derivatives of mz and of the even and odd pair integrals,
    rows 3 + 3i to 5 + 3i after the values themselves."""
    mz, even, odd = vals[0], vals[1], vals[2]
    gxx = even - odd
    gyy = even + odd
    gzz = mz * mz - gyy * gxx
    corr = Correlators(mz, gxx, gyy, gzz)
    dcorr, dstate = {}, {}
    for i, tag in enumerate(tags):
        dmz, deven, dodd = vals[3 + 3 * i], vals[4 + 3 * i], vals[5 + 3 * i]
        dgxx = deven - dodd
        dgyy = deven + dodd
        dgzz = 2.0 * mz * dmz - (dgyy * gxx + gyy * dgxx)
        dcorr[tag] = Correlators(dmz, dgxx, dgyy, dgzz)
        dstate[tag] = TwoSpinXState(
            0.25 * (2.0 * dmz + dgzz), 0.25 * (-2.0 * dmz + dgzz),
            -0.25 * dgzz, 0.25 * (dgxx + dgyy), 0.25 * (dgxx - dgyy))
    # gzz = mz^2 - gxx gyy; written out, the small entries near J = 0
    # (a_minus ~ J^2) keep their digits instead of cancelling against 1.
    # Squares are products: float ** 2 (libm pow) and an array's ** 2 can
    # round differently, and a point must get the same bits either way.
    gxy = gxx * gyy
    up, down = 1.0 + mz, 1.0 - mz
    state = TwoSpinXState(0.25 * (up * up - gxy), 0.25 * (down * down - gxy),
                          0.25 * (1.0 - gzz), 0.25 * (gxx + gyy),
                          0.25 * (gxx - gyy))
    return ChainPoints(corr, state, dcorr, dstate)


def _take(points: ChainPoints, keep: np.ndarray) -> ChainPoints:
    """The points ``keep`` (a mask) of a family."""
    def take(part):
        return part._make(a[keep] for a in part)

    return ChainPoints(take(points.corr), take(points.state),
                       {t: take(d) for t, d in points.dcorr.items()},
                       {t: take(d) for t, d in points.dstate.items()})


def _shared(a: np.ndarray):
    """A coupling of a family as :func:`_integrand_rows` takes it: a float
    when every point has the same bits, else the array of the points."""
    bits = a.view(np.int64)
    return float(a[0]) if a.size and (bits == bits[0]).all() else a


def _integrals(f, J, gamma, D, tags: Tuple[str, ...], quad: QuadratureConfig):
    """Integrals of the stack ``f(rows, owner)`` of :func:`_integrand_rows`
    for ``tags`` at the points J, gamma, D (arrays, or floats for one
    point), and a ``(k, QuadratureFailure)`` naming the couplings per point
    k that did not converge; each pass starts on its graded mesh.

    A pass holds two floats per integrand and panel, its Kronrod sums and
    error estimates.  A family whose start panels would hold more than
    _PASS_FLOATS of them is integrated in passes over consecutive groups
    of its points, about equal in number, so that its estimates are not
    one large array; a point's values do not depend on the points that
    share its pass."""
    panels, counts = _start_mesh(J, D, quad.max_subdivisions)
    passes = -(-2 * (3 + 3 * len(tags)) * len(panels) // _PASS_FLOATS)
    if passes <= 1:
        vals, _, stuck = integrate_points(f, _START_TABLE, panels, counts, quad)
    else:
        cuts = np.linspace(0, counts.size, passes + 1).astype(int).tolist()
        ends = [0] + counts.cumsum().tolist()
        parts, stuck = [], []
        for a, b in zip(cuts, cuts[1:]):
            v, _, s = integrate_points(
                lambda rows, owner, a=a: f(rows, owner + a), _START_TABLE,
                panels[ends[a]:ends[b]], counts[a:b], quad)
            parts.append(v)
            stuck += [(a + k, exc) for k, exc in s]
        vals = np.concatenate(parts, axis=1)
    return vals, [(k, QuadratureFailure(
        f"{exc} (J = {np.atleast_1d(J)[k]:g}, "
        f"gamma = {np.atleast_1d(gamma)[k]:g}, D = {np.atleast_1d(D)[k]:g})"))
        for k, exc in stuck]


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
    ``quad.max_subdivisions``: with a budget of 8 panels the start has no
    ladder.  Where |J| (1 + 2|D|) < 1, u cannot vanish on [0, pi], and
    the 7 uniform panels above the first give way to 4, with edges pi/8,
    pi/4, pi/2, 3 pi/4 and pi (mirrored for J < 0).
    """
    tags = _validate_tags(tags)
    if tags:
        derivative_guard(params)
    J, g, D = params.J, params.gamma, params.D

    def f(rows: np.ndarray, owner: np.ndarray) -> np.ndarray:
        return _integrand_rows(J, g, D, tags, rows)

    vals, failures = _integrals(f, J, g, D, tags, quad)
    for _, exc in failures:
        raise exc
    points = _evaluated(tags, vals[:, 0].tolist())
    _check_positivity(points.state)
    return points


def chain_outcome(J, gamma, D, tags: Sequence[str] = (),
                  quad: QuadratureConfig = DEFAULT_QUAD):
    """:func:`chain_point` for a family of points in one batched quadrature.

    J, gamma and D broadcast against each other to a 1-D family.  Each
    point starts on the same graded mesh as in :func:`chain_point` and is
    refined on its own panels to the same tolerance, so its values equal
    those of :func:`chain_point` bit for bit, whatever the rest of the
    family does.  Returns ``(points, failures)``: the ChainPoints of the
    points that succeeded, and an ``(index, exception)`` pair per point
    that failed, in order of index, with what :func:`chain_point` raises
    there (a QuadratureFailure names the couplings).
    """
    tags = _validate_tags(tags)
    J, gamma, D = (np.array(a, dtype=float).ravel()
                   for a in np.broadcast_arrays(J, gamma, D))
    failures = dict(_refused(J, gamma, D, tags))
    index = np.arange(J.size)       # family index of each integrated point
    if failures:                    # only the admitted points are integrated
        index = np.delete(index, list(failures))
        J, gamma, D = J[index], gamma[index], D[index]
    couplings = [_shared(a) for a in (J, gamma, D)]

    def f(rows: np.ndarray, owner: np.ndarray) -> np.ndarray:
        shape = rows.shape[1:]
        return _integrand_rows(*[c if type(c) is float
                                 else c[owner].repeat(shape[1]).reshape(shape)
                                 for c in couplings], tags, rows)

    vals, stuck = _integrals(f, J, gamma, D, tags, quad)
    points = _evaluated(tags, vals)
    failed = {}
    for k, exc in stuck + list(_violations(points.state)):
        failed.setdefault(k, exc)       # a point fails with its first failure
    if failed:
        keep = np.ones(J.size, dtype=bool)
        keep[list(failed)] = False
        points = _take(points, keep)
        failures.update((int(index[k]), exc) for k, exc in failed.items())
    return points, tuple(sorted(failures.items()))


def chain_points(J, gamma, D, tags: Sequence[str] = (),
                 quad: QuadratureConfig = DEFAULT_QUAD) -> ChainPoints:
    """The points of :func:`chain_outcome`, or its first failure raised."""
    points, failures = chain_outcome(J, gamma, D, tags, quad)
    for _, exc in failures:
        raise exc
    return points


def x_state(params: ChainParams, quad: QuadratureConfig = DEFAULT_QUAD) -> TwoSpinXState:
    """Reduced two-spin state; raises PositivityViolation if invalid."""
    return chain_point(params, (), quad).state
