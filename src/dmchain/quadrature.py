"""Adaptive Gauss-Kronrod quadrature, vectorized over families of integrands.

The momentum integrals of the chain share all of their expensive
sub-expressions (the dispersion and its powers), so the engine integrates a
whole stack of integrands on one adaptive grid instead of calling a scalar
routine per integral.  Panels are bisected where the 7-point Gauss /
15-point Kronrod discrepancy dominates, until every member of the stack
meets its tolerance or the panel budget runs out.

:func:`integrate_points` applies the same refinement to a family of
parameter points at once: each point keeps its own panels, tolerance and
budget, and the panels of all unconverged points share each rule call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "QuadratureConfig",
    "QuadratureFailure",
    "DEFAULT_QUAD",
    "integrate_many",
    "integrate_points",
]


class QuadratureFailure(RuntimeError):
    """Requested tolerance not reached within the subdivision budget.

    ``point`` is the index of the failing point in an
    :func:`integrate_points` family, else None.
    """

    def __init__(self, message: str, point: Optional[int] = None) -> None:
        super().__init__(message)
        self.point = point


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


def _panel_rule(
    f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Kronrod values and error estimates per integrand per panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[:, None] + half[:, None] * _XK[None, :]
    y = np.asarray(f(x.ravel()))
    if y.ndim == 1:
        y = y[None, :]
    y = y.reshape(y.shape[0], lo.size, _XK.size)
    kron = (y * _WK).sum(axis=-1) * half
    gauss = (y * _WG).sum(axis=-1) * half
    diff = np.abs(kron - gauss)
    # QUADPACK-style sharpening: trust the (200 d)^1.5 estimate only where it
    # is smaller than the raw discrepancy.
    err = np.minimum(diff, (200.0 * diff) ** 1.5)
    return kron, err


def integrate_many(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    config: QuadratureConfig = DEFAULT_QUAD,
) -> Tuple[np.ndarray, np.ndarray]:
    """Integrate a stacked family of integrands over [a, b].

    ``f`` maps a flat point array of shape (n,) to values of shape (k, n);
    the k integrands are evaluated on a shared adaptive grid.  Nodes are
    strictly interior, so integrable endpoint singularities never get
    evaluated.  Returns ``(values, errors)``, both of shape (k,).

    Raises QuadratureFailure if some integrand still violates
    ``max(abs_tol, rel_tol * |integral|)`` after ``max_subdivisions`` panels.
    """
    if not b > a:
        raise ValueError("integration interval must have b > a")
    # Warm start with several uniform panels: the chain integrands develop a
    # sharp peak near phi = 0 close to criticality.
    edges = np.linspace(a, b, 9)
    lo, hi = edges[:-1].copy(), edges[1:].copy()
    vals, errs = _panel_rule(f, lo, hi)

    while True:
        totals = vals.sum(axis=1)
        total_err = errs.sum(axis=1)
        tol = np.maximum(config.abs_tol, config.rel_tol * np.abs(totals))
        if not (total_err > tol).any():
            return totals, total_err
        budget = config.max_subdivisions - lo.size
        if budget <= 0:
            worst = float(np.max(total_err / tol))
            raise QuadratureFailure(
                f"no convergence with {lo.size} panels; "
                f"worst error exceeds tolerance by factor {worst:.3g}"
            )
        # Split the panels carrying the bulk of the scaled error mass.
        badness = (errs / tol[:, None]).max(axis=0)
        order = np.argsort(badness)[::-1]
        cum = np.cumsum(badness[order])
        n_split = int(np.searchsorted(cum, 0.5 * cum[-1])) + 1
        n_split = min(n_split, budget)
        split = np.zeros(lo.size, dtype=bool)
        split[order[:n_split]] = True

        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[~split], lo[split], mid])
        new_hi = np.concatenate([hi[~split], mid, hi[split]])
        new_vals, new_errs = _panel_rule(f, np.concatenate([lo[split], mid]),
                                         np.concatenate([mid, hi[split]]))
        vals = np.concatenate([vals[:, ~split], new_vals], axis=1)
        errs = np.concatenate([errs[:, ~split], new_errs], axis=1)
        lo, hi = new_lo, new_hi


def _family_rule(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    owner: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_panel_rule` over panels of several points, in capped chunks."""
    per_call = _MAX_RULE_NODES // _XK.size
    parts = []
    # At least one call, so that even an empty family learns its stack size.
    for s in range(0, max(lo.size, 1), per_call):
        node_owner = np.repeat(owner[s:s + per_call], _XK.size)
        parts.append(_panel_rule(lambda x: f(x, node_owner),
                                 lo[s:s + per_call], hi[s:s + per_call]))
    if len(parts) == 1:
        return parts[0]
    return (np.concatenate([p[0] for p in parts], axis=1),
            np.concatenate([p[1] for p in parts], axis=1))


def integrate_points(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n: int,
    a: float,
    b: float,
    config: QuadratureConfig = DEFAULT_QUAD,
) -> Tuple[np.ndarray, np.ndarray]:
    """Integrate the integrand stacks of n parameter points over [a, b].

    ``f(x, owner)`` maps flat nodes x of shape (m,), and the index of the
    point each node belongs to, to values of shape (k, m).  Every point is
    refined as :func:`integrate_many` refines a single stack: it has its
    own panels, its own test ``max(abs_tol, rel_tol * |integral|)`` and its
    own budget of ``max_subdivisions`` panels, only unconverged points are
    split, and a point leaves the family once it converges.  A point's
    panels, sums and split choices involve no other point, so its values
    do not depend on which points share its call.  Returns ``(values,
    errors)``, both of shape (k, n).

    Raises QuadratureFailure if some point still violates its tolerance
    after ``max_subdivisions`` of its panels.
    """
    if not b > a:
        raise ValueError("integration interval must have b > a")
    edges = np.linspace(a, b, 9)
    owner = np.repeat(np.arange(n), edges.size - 1)
    lo = np.tile(edges[:-1], n)
    hi = np.tile(edges[1:], n)
    vals, errs = _family_rule(f, lo, hi, owner)
    out_vals = np.empty((vals.shape[0], n))
    out_errs = np.empty((vals.shape[0], n))

    # Panels stay grouped by point, in the order integrate_many keeps them.
    while owner.size:
        starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
        counts = np.diff(np.r_[starts, owner.size])
        points = owner[starts]
        totals = np.add.reduceat(vals, starts, axis=1)
        total_err = np.add.reduceat(errs, starts, axis=1)
        tol = np.maximum(config.abs_tol, config.rel_tol * np.abs(totals))
        unconverged = (total_err > tol).any(axis=0)
        done = ~unconverged
        out_vals[:, points[done]] = totals[:, done]
        out_errs[:, points[done]] = total_err[:, done]
        if done.all():
            break

        budget = config.max_subdivisions - counts[unconverged]
        if (budget <= 0).any():
            worst = total_err / tol
            stuck = np.flatnonzero(unconverged)[budget <= 0]
            point = int(points[stuck[0]])
            raise QuadratureFailure(
                f"no convergence at point {point} with "
                f"{counts[stuck[0]]} panels; worst error exceeds tolerance "
                f"by factor {float(worst[:, stuck].max()):.3g}", point
            )
        keep = np.repeat(unconverged, counts)
        lo, hi, owner = lo[keep], hi[keep], owner[keep]
        vals, errs = vals[:, keep], errs[:, keep]
        seg = np.repeat(np.arange(budget.size), counts[unconverged])
        starts = np.r_[0, np.cumsum(counts[unconverged])[:-1]]

        # Split the panels carrying the bulk of each point's scaled error
        # mass: sort each point's panels by badness, take the shortest
        # prefix whose running sum reaches half of the point's total.
        badness = (errs / tol[:, unconverged][:, seg]).max(axis=0)
        order = np.lexsort((-badness, seg))
        rank = np.arange(order.size) - starts[seg]
        padded = np.zeros((budget.size, int(counts[unconverged].max())))
        padded[seg, rank] = badness[order]
        cum = np.cumsum(padded, axis=1)
        n_split = (cum < 0.5 * cum[:, -1:]).sum(axis=1) + 1
        n_split = np.minimum(n_split, budget)
        split = np.empty(order.size, dtype=bool)
        split[order] = rank < n_split[seg]

        mid = 0.5 * (lo[split] + hi[split])
        halves_lo = np.concatenate([lo[split], mid])
        halves_hi = np.concatenate([mid, hi[split]])
        halves_owner = np.concatenate([owner[split], owner[split]])
        new_vals, new_errs = _family_rule(f, halves_lo, halves_hi, halves_owner)
        # Stable regrouping keeps each point's unsplit panels, then its
        # left halves, then its right halves.
        regroup = np.argsort(np.concatenate([owner[~split], halves_owner]),
                             kind="stable")
        lo = np.concatenate([lo[~split], halves_lo])[regroup]
        hi = np.concatenate([hi[~split], halves_hi])[regroup]
        owner = np.concatenate([owner[~split], halves_owner])[regroup]
        vals = np.concatenate([vals[:, ~split], new_vals], axis=1)[:, regroup]
        errs = np.concatenate([errs[:, ~split], new_errs], axis=1)[:, regroup]
    return out_vals, out_errs

