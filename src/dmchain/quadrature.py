"""Adaptive Gauss-Kronrod quadrature, vectorized over families of integrands.

The momentum integrals of the chain share all of their expensive
sub-expressions (the dispersion and its powers), so the engine integrates a
whole stack of integrands on one adaptive grid instead of calling a scalar
routine per integral.  A panel is bisected when its 7-point Gauss /
15-point Kronrod discrepancy reaches an equal share of the tolerance of
some member of the stack, until every member meets its tolerance or the
panel budget runs out.

:func:`integrate_points` is the one refinement loop.  It refines a family
of parameter points at once, a single point being a family of one: each
point keeps its own panels, tolerance and budget, and the panels of all
unconverged points share each rule call.

The engine does not choose where a pass starts: the caller passes the
start panels, which count against ``max_subdivisions`` like any later panel.
The chain layer starts each pass on a mesh graded toward the endpoint
where its integrands peak (see :func:`dmchain.chain.chain_point`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import QuadratureFailure

__all__ = [
    "QuadratureConfig",
    "QuadratureFailure",
    "DEFAULT_QUAD",
    "integrate_points",
]


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 4096

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 8:
            raise ValueError("max_subdivisions must be at least 8")


DEFAULT_QUAD = QuadratureConfig()

# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1].
_XK_HALF = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WK_HALF = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
# Gauss weights sit on every second Kronrod node.
_WG_HALF = np.array(
    [
        0.0,
        0.129484966168870,
        0.0,
        0.279705391489277,
        0.0,
        0.381830050505119,
        0.0,
        0.417959183673469,
    ]
)

# Nodes per rule call in integrate_points: bounds the (integrands x nodes)
# temporaries of the integrand, and so the memory of a large family.
_MAX_RULE_NODES = 1 << 11

_XK = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])
_WK = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
_WG = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])
_W = np.stack([_WK, _WG], axis=1)   # (15, 2): Kronrod, Gauss


def _panel_rule(
    f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Kronrod values and error estimates per integrand per panel, stacked
    as (2, k, panels); f maps nodes of shape (m,) to a (k, m) stack."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[:, None] + half[:, None] * _XK[None, :]
    y = f(x.ravel())
    y = y.reshape(y.shape[0], lo.size, _XK.size)
    # One product with the stacked weights: no full-size weighted copy of y.
    sums = (y.reshape(-1, _XK.size) @ _W).reshape(y.shape[0], lo.size, 2)
    kron, err = est = np.empty((2, y.shape[0], lo.size))
    np.multiply(sums[..., 0], half, out=kron)
    gauss = sums[..., 1] * half
    diff = np.abs(kron - gauss)
    # QUADPACK-style sharpening: trust the (200 d)^1.5 estimate only where it
    # is smaller than the raw discrepancy.
    np.minimum(diff, (200.0 * diff) ** 1.5, out=err)
    return est


def _family_rule(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    owner: np.ndarray,
) -> np.ndarray:
    """:func:`_panel_rule` over panels of several points, in capped chunks."""
    per_call = _MAX_RULE_NODES // _XK.size
    if lo.size > per_call:
        return np.concatenate(
            [_family_rule(f, lo[s:s + per_call], hi[s:s + per_call],
                          owner[s:s + per_call])
             for s in range(0, lo.size, per_call)], axis=2)
    # Even an empty family makes this one call, so it learns its stack size.
    node_owner = owner.repeat(_XK.size)
    return _panel_rule(lambda x: f(x, node_owner), lo, hi)


def integrate_points(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    counts: np.ndarray,
    config: QuadratureConfig = DEFAULT_QUAD,
) -> Tuple[np.ndarray, np.ndarray]:
    """Integrate the integrand stacks of n = len(counts) parameter points.

    Point i starts from its ``counts[i]`` (at least one) panels [lo, hi],
    which follow those of point i - 1.  ``f(x, owner)`` maps flat nodes x
    of shape (m,), and the index of the point each node belongs to, to
    values of shape (k, m): the k integrands of a point are evaluated on
    one shared adaptive grid.  Nodes are strictly interior, so integrable
    endpoint singularities never get evaluated.  Every point has its own
    panels, its own test ``max(abs_tol, rel_tol * |integral|)`` and its
    own budget of ``max_subdivisions`` panels, and a point leaves the
    family once it converges.  An unconverged point with c panels bisects,
    in place, each panel whose error reaches 1/c of its tolerance in some
    integrand.  A point's panels, sums and split choices involve no other
    point, so its values do not depend on which points share its call.
    Returns ``(values, errors)``, both of shape (k, n).

    Raises ValueError if some point starts on more than
    ``max_subdivisions`` panels, and QuadratureFailure if some unconverged
    point has no panel to split, or would hold more than
    ``max_subdivisions`` panels, its start panels included, after
    splitting them.  A NaN error estimate is unconverged, so a point
    whose integral is not finite raises instead of returning NaN.
    """
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    if lo.shape != hi.shape or not (hi > lo).all():
        raise ValueError("start panels need matching lo, hi with hi > lo")
    counts = np.asarray(counts, dtype=np.int64).ravel()
    c = counts.tolist()
    if (min(c, default=1) < 1 or sum(c) != lo.size
            or max(c, default=1) > config.max_subdivisions):
        raise ValueError("every point needs 1 to max_subdivisions start "
                         "panels, and counts must sum to the number of panels")
    # points: family index of each point still being refined, ascending;
    # its counts[i] panels follow those of the point before it.
    points = np.arange(counts.size)
    owner = points.repeat(counts)
    est = _family_rule(f, lo, hi, owner)
    out = None

    while True:
        sums = np.add.reduceat(est, counts.cumsum() - counts, axis=2)
        totals, total_err = sums
        tol = np.maximum(config.abs_tol, config.rel_tol * np.abs(totals))
        if out is None:                  # first pass: every point, in order
            out = sums
        else:
            out[:, :, points] = sums
        # A NaN error estimate is no convergence.
        met = total_err <= tol
        if met.all():
            return out[0], out[1]

        unconverged = ~met.all(axis=0)
        keep = unconverged.repeat(counts)
        lo, hi, owner, est = lo[keep], hi[keep], owner[keep], est[:, :, keep]
        points, counts = points[unconverged], counts[unconverged]
        tol = tol[:, unconverged]
        seg = np.arange(points.size).repeat(counts)

        # Split every panel whose error reaches an equal share of its
        # point's tolerance in some integrand: if no panel did, the point's
        # summed error would be below its tolerance.
        split = (est[1] * counts[seg] >= tol[:, seg]).any(axis=0)
        n_split = np.add.reduceat(split, counts.cumsum() - counts)
        # Nothing to split can only be roundoff in the sums, or an integral
        # that is not finite; stop there too.
        stuck = (counts + n_split > config.max_subdivisions) | (n_split == 0)
        if stuck.any():
            i = int(np.flatnonzero(stuck)[0])
            point = int(points[i])
            worst = float((total_err[:, unconverged][:, i] / tol[:, i]).max())
            raise QuadratureFailure(
                f"no convergence at point {point} with {counts[i]} panels; "
                + (f"worst error exceeds tolerance by factor {worst:.3g}"
                   if np.isfinite(worst) else "the integral is not finite"),
                point)
        counts = counts + n_split

        # Bisect in place: a split panel becomes its left and right halves,
        # so each point's panels stay contiguous and in order.
        halves = split.repeat(split + 1)
        lo, hi, owner = (a.repeat(split + 1) for a in (lo, hi, owner))
        est = est.repeat(split + 1, axis=2)
        left, right = np.flatnonzero(halves).reshape(-1, 2).T
        hi[left] = lo[right] = 0.5 * (lo[left] + hi[left])
        est[:, :, halves] = _family_rule(f, lo[halves], hi[halves],
                                         owner[halves])
