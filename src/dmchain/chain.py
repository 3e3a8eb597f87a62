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
criticality (see :func:`chain_point`), whose panels are rows of one node
table built at import: sin and cos tabulated at the Kronrod nodes of each
distinct start panel.
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
# is 5e-8), so u = J cos(phi) - 1 stays nonzero at J = 1.
_UNIFORM_PANELS = 8
_RUNG = _PI / _UNIFORM_PANELS
_LADDER_FLOOR = 1e-5
_MAX_RUNGS = int(math.log2(_RUNG / _LADDER_FLOOR))


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
    """Start panels of every end and ladder depth, and where along J each
    row starts.  Row ``k + end * (_MAX_RUNGS + 1)`` of ``panels`` holds in
    its ``keep`` entries the ladder of depth k toward phi = 0 (end 0,
    J >= 0) or pi, innermost first, as ids into the node table of the
    distinct start panels, ``table``.  The depth
    rint(log2(_RUNG / max(||J| - 1|, _LADDER_FLOOR))), held to
    [0, _MAX_RUNGS], changes within an ulp or two of
    |J| = 1 -+ _RUNG 2^-(k + 1/2), so each ``breaks`` entry, the first J
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
    # Number the distinct panels, which the rows share.  Every bound is an
    # entry of ``bounds``, so a panel is keyed by the first entries equal
    # to its bounds (no sort: its code would be paged in for this alone).
    bounds = np.concatenate([edges, _PI - edges])
    key = ((lo[keep][:, None] == bounds).argmax(axis=1),
           (hi[keep][:, None] == bounds).argmax(axis=1))
    seen = np.zeros((bounds.size, bounds.size), dtype=bool)
    seen[key] = True
    panels = np.zeros(keep.shape, dtype=np.intp)
    panels[keep] = (seen.cumsum() - 1).reshape(seen.shape)[key]
    lo, hi = (bounds[i] for i in np.nonzero(seen))

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
    table = NodeTable(lo, hi, _phi_factors)
    return (table, panels, keep, keep.sum(axis=1), breaks,
            rows.astype(np.intp))


(_START_TABLE, _START_PANELS, _START_KEEP, _START_COUNTS, _START_BREAKS,
 _START_ROWS) = _start_tables()
# The same table for one point, in Python: the breaks and rows as lists,
# and per row its panel ids and count, read-only since every pass shares
# them.
_START_BREAK_LIST = _START_BREAKS.tolist()
_START_ROW_LISTS = _START_ROWS.tolist()
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


def _start_mesh(J, max_subdivisions: int):
    """Start panels ``(panels, counts)`` of the points with couplings J, an
    array, or a number for one point, as row ids into ``_START_TABLE``.

    Near |J| = 1 the integrands peak within about ||J| - 1| of phi = 0
    (J > 0) or phi = pi (J < 0), where Delta vanishes at criticality.
    Each point gets the uniform panels plus the rungs of the ladder toward
    that endpoint down to the rung nearest max(||J| - 1|, _LADDER_FLOOR),
    at most ``max_subdivisions - _UNIFORM_PANELS`` of them, since the
    start panels count against the budget.  Panels are grouped by point,
    the innermost first.

    A number's row is found by ``bisect`` on the table's breaks as a list,
    an array's by one ``np.searchsorted``: the same binary search for the
    same row, without numpy calls on a 1-element array.
    """
    cap = min(_MAX_RUNGS, max_subdivisions - _UNIFORM_PANELS)
    if not isinstance(J, np.ndarray):
        return _START_MESHES[_START_ROW_LISTS[cap][
            bisect.bisect_right(_START_BREAK_LIST, J)]]
    row = _START_ROWS[cap][np.searchsorted(_START_BREAKS, J, side="right")]
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


def _integrals(f, J, gamma, D, quad: QuadratureConfig):
    """Integrals of the stack ``f(rows, owner)`` at the points J, gamma, D
    (arrays, or floats for one point), and a ``(k, QuadratureFailure)``
    naming the couplings per point k that did not converge; each pass
    starts on its graded mesh."""
    vals, _, stuck = integrate_points(
        f, _START_TABLE, *_start_mesh(J, quad.max_subdivisions), quad)
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
    ``quad.max_subdivisions``: with a budget of 8 panels the start is the
    uniform mesh alone.
    """
    tags = _validate_tags(tags)
    if tags:
        derivative_guard(params)
    J, g, D = params.J, params.gamma, params.D

    def f(rows: np.ndarray, owner: np.ndarray) -> np.ndarray:
        return _integrand_rows(J, g, D, tags, rows)

    vals, failures = _integrals(f, J, g, D, quad)
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

    vals, stuck = _integrals(f, J, gamma, D, quad)
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
