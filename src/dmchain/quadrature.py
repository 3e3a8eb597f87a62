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
unconverged points share each rule call.  A point that runs out of panels
to split or of budget leaves the family as a converged point does, and is
returned as a failure next to the values (as in QUADPACK, Piessens et
al. 1983, which reports per interval).

A panel is an integer id into a :class:`NodeTable`: a row per panel with
its bounds and the integrand's factors that depend on the node alone,
tabulated at its 15 Kronrod nodes.  The integrand gets the gathered rows
of the panels it evaluates, so a factor such as sin(phi) is computed once
per distinct panel, not once per point and panel.  A pass bisects by id:
the halves of a panel are tabulated the first time some point of the
family splits it, kept for the rest of the pass and then dropped, so the
memory of a pass is bounded by the pass.  A tabulated factor is the same
function of the same node as one computed at evaluation time, so the
table changes the cost of a value, never its bits.

The engine does not choose where a pass starts: the caller passes the
table and the start panels, which count against ``max_subdivisions`` like
any later panel.  The chain layer starts each pass on the rows of its
table of start panels, graded toward the endpoint where its integrands
peak (see :func:`dmchain.chain.chain_point`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import QuadratureFailure

__all__ = [
    "QuadratureConfig",
    "QuadratureFailure",
    "DEFAULT_QUAD",
    "NodeTable",
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
        if not isinstance(self.max_subdivisions, (int, np.integer)):
            raise ValueError("max_subdivisions must be an integer, got %r"
                             % (self.max_subdivisions,))
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

# Floats a rule call of integrate_points may hold: (stack height +
# _SCRATCH_ROWS) x nodes, the integrand's output and its node-shaped
# scratch.  For the chain's stack the scratch is at most ten rows (the two
# gathered table rows, three couplings that vary across the family, three
# work arrays and two temporaries of a product) plus the call's estimates.
# This bounds the memory of a large family: it is what a stack of
# _FIRST_HEIGHT integrands (the chain's tallest, the values and three
# derivatives) holds at 2048 nodes, and the first call of a pass, made
# before the engine knows the height, is sized for such a stack.
_SCRATCH_ROWS = 12
_FIRST_HEIGHT = 12
_MAX_RULE_FLOATS = (_FIRST_HEIGHT + _SCRATCH_ROWS) * 2048

_XK = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])
_WK = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
_WG = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])
_W = np.stack([_WK, _WG], axis=1)   # (15, 2): Kronrod, Gauss


def _kronrod_nodes(lo: np.ndarray, hi: np.ndarray,
                   half: np.ndarray) -> np.ndarray:
    """Kronrod nodes of the panels [lo, hi] of half-widths
    ``half = 0.5 * (hi - lo)``, shape (panels, 15)."""
    mid = 0.5 * (hi + lo)
    return mid[:, None] + half[:, None] * _XK


class NodeTable:
    """Panels, and the node factors of an integrand at their Kronrod nodes.

    Row i is the panel [lo[i], hi[i]] and ``rows[:, i]``, the stack
    ``factors(nodes)`` at its 15 Kronrod nodes: ``factors`` maps nodes of
    shape (n, 15) to factors of shape (m, n, 15), each node's from that
    node alone.  The rows are tabulated once, here; a pass of
    :func:`integrate_points` tabulates the halves of the panels it bisects
    on its own copy, so the table does not grow.
    """

    __slots__ = ("lo", "hi", "half", "rows", "factors")

    def __init__(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        factors: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        lo = np.asarray(lo, dtype=float).ravel()
        hi = np.asarray(hi, dtype=float).ravel()
        if lo.shape != hi.shape or not (hi > lo).all():
            raise ValueError("panels need matching lo, hi with hi > lo")
        self.lo, self.hi, self.factors = lo, hi, factors
        self.half = 0.5 * (hi - lo)
        self.rows = factors(_kronrod_nodes(lo, hi, self.half))


def _panel_rule(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    panels: np.ndarray,
    owner: np.ndarray,
    half: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Kronrod values and error estimates per integrand at the table rows
    ``panels``, stacked as (2, k, panels); ``f(rows[:, panels], owner)``
    is the (k, panels, 15) stack of the integrands at their nodes."""
    y = f(rows.take(panels, axis=1), owner)
    # One product with the stacked weights: no full-size weighted copy of y.
    sums = (y.reshape(-1, _XK.size) @ _W).reshape(y.shape[0], panels.size, 2)
    # and one with the half-widths, for the Kronrod sums in est[0] and the
    # Gauss sums in est[1], where their error estimate then goes
    est = np.multiply(sums.transpose(2, 0, 1), half[panels], order="C")
    kron, err = est[0], est[1]
    diff = np.abs(kron - err)
    # QUADPACK-style sharpening: trust the (200 d)^1.5 estimate only where it
    # is smaller than the raw discrepancy.
    np.minimum(diff, (200.0 * diff) ** 1.5, out=err)
    return est


def _rule_panels(height: int) -> int:
    """Panels per rule call for a stack of ``height`` integrands."""
    return max(1, _MAX_RULE_FLOATS // ((height + _SCRATCH_ROWS) * _XK.size))


_FIRST_PANELS = _rule_panels(_FIRST_HEIGHT)


def _family_rule(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    panels: np.ndarray,
    owner: np.ndarray,
    half: np.ndarray,
    rows: np.ndarray,
    est: Optional[np.ndarray] = None,
    at: Optional[np.ndarray] = None,
) -> np.ndarray:
    """:func:`_panel_rule` over panels of several points, in chunks of at
    most _MAX_RULE_FLOATS floats for the stack height of ``est``; a panel's
    rule does not depend on its chunk.  The rule of ``panels[j]`` goes to
    ``est[:, :, at[j]]``.  With no ``est``, returns a new one in the order
    of the panels, whose first chunk, sized for a stack of _FIRST_HEIGHT
    integrands, tells the height (even an empty family makes that call)."""
    done = 0
    if est is None:
        done = _FIRST_PANELS
        if panels.size <= done:
            return _panel_rule(f, panels, owner, half, rows)
        first = _panel_rule(f, panels[:done], owner[:done], half, rows)
        est = np.empty(first.shape[:2] + panels.shape)
        est[:, :, :done] = first
    step = _rule_panels(est.shape[1])
    for s in range(done, panels.size, step):
        e = s + step
        est[:, :, slice(s, e) if at is None else at[s:e]] = _panel_rule(
            f, panels[s:e], owner[s:e], half, rows)
    return est


def integrate_points(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    table: NodeTable,
    panels: np.ndarray,
    counts: np.ndarray,
    config: QuadratureConfig = DEFAULT_QUAD,
) -> Tuple[np.ndarray, np.ndarray, List[Tuple[int, QuadratureFailure]]]:
    """Integrate the integrand stacks of n = len(counts) parameter points.

    Point i starts on its ``counts[i]`` (at least one) panels, the rows
    ``panels`` of ``table`` that follow those of point i - 1.
    ``f(rows, owner)`` maps the table rows of p panels, shape (m, p, 15),
    and the index of the point each panel belongs to, shape (p,), to the
    values of shape (k, p, 15) at their nodes: the k integrands of a point
    are evaluated on one shared adaptive grid.  Nodes are strictly
    interior, so integrable endpoint singularities never get evaluated.
    Every point has its own panels, its own test
    ``max(abs_tol, rel_tol * |integral|)`` and its own budget of
    ``max_subdivisions`` panels, and a point leaves the family once it
    converges.  An unconverged point with c panels bisects, in place, each
    panel whose error reaches 1/c of its tolerance in some integrand.  A
    point's panels, sums and split choices involve no other point, so its
    values do not depend on which points share its call.

    Returns ``(values, errors, failures)``: values and errors of shape
    (k, n), and an ``(i, QuadratureFailure)`` pair per point i that stopped
    unconverged, in order of i.  A point stops, keeping its last sums, when it has no
    panel to split or would hold more than ``max_subdivisions`` panels,
    its start panels included, after splitting them.  A NaN error estimate
    is unconverged, so a point whose integral is not finite stops at once.
    Raises ValueError if some point starts on more than
    ``max_subdivisions`` panels.
    """
    panels = np.asarray(panels, dtype=np.intp).ravel()
    counts = np.asarray(counts, dtype=np.int64).ravel()
    c = counts.tolist()
    if (min(c, default=1) < 1 or sum(c) != panels.size
            or max(c, default=1) > config.max_subdivisions):
        raise ValueError("every point needs 1 to max_subdivisions start "
                         "panels, and counts must sum to the number of panels")
    # The pass's table: the given rows, then the two halves of each row the
    # pass bisects, at left_half[row] and the row after it once halved[row]
    # (a mask, not left_half < 0: an integer comparison pages in numpy code
    # that no other step runs, about 0.1 MB of resident memory).  It is
    # made at the pass's first split, so a pass that converges on its
    # start panels reads the given table only.
    lo, hi, half, rows = table.lo, table.hi, table.half, table.rows
    left_half = halved = None
    # points: family index of each point still being refined, ascending;
    # its counts[i] panels follow those of the point before it.
    points = np.arange(counts.size)
    owner = points.repeat(counts)
    est = _family_rule(f, panels, owner, half, rows)
    out = None
    failures = []

    while True:
        starts = counts.cumsum() - counts
        sums = np.add.reduceat(est, starts, axis=2)
        totals, total_err = sums[0], sums[1]
        tol = np.maximum(config.abs_tol, config.rel_tol * np.abs(totals))
        if out is None:                  # first pass: every point, in order
            out = sums
        else:
            out[:, :, points] = sums
        # A NaN error estimate is no convergence.  (count_nonzero is the
        # cheapest test of a small mask: all() dispatches through Python.)
        met = total_err <= tol
        if np.count_nonzero(met) == met.size:
            break
        met = met.all(axis=0)
        if met.any():                    # converged points leave the family
            go = ~met
            keep = go.repeat(counts)
            panels, owner, est = panels[keep], owner[keep], est[:, :, keep]
            points, counts = points[go], counts[go]
            tol, total_err = tol[:, go], total_err[:, go]
            starts = counts.cumsum() - counts

        # Split every panel whose error reaches an equal share of its
        # point's tolerance in some integrand: if no panel did, the point's
        # summed error would be below its tolerance.
        split = (est[1] * counts.repeat(counts)
                 >= tol.repeat(counts, axis=1)).any(axis=0)
        n_split = np.add.reduceat(split, starts)
        grown = counts + n_split
        # Nothing to split can only be roundoff in the sums, or an integral
        # that is not finite; stop there too.
        stuck = (grown > config.max_subdivisions) | (n_split == 0)
        if stuck.any():                  # stuck points leave the family
            worst = (total_err / tol).max(axis=0)
            for i in stuck.nonzero()[0].tolist():
                failures.append((int(points[i]), QuadratureFailure(
                    f"no convergence with {counts[i]} panels; " + (
                        f"worst error exceeds tolerance by factor {worst[i]:.3g}"
                        if np.isfinite(worst[i]) else "the integral is not finite"))))
            go = ~stuck
            keep = go.repeat(counts)
            panels, owner, est, split = (panels[keep], owner[keep],
                                         est[:, :, keep], split[keep])
            points, grown = points[go], grown[go]
            if not points.size:
                break
        counts = grown

        # Tabulate the halves of the split rows that have none yet, each
        # row once however many points split it.
        parents = panels[split]
        new = np.zeros(lo.size, dtype=bool)
        new[parents] = True
        if halved is not None:
            new &= ~halved
        new = new.nonzero()[0]
        if new.size:
            new_lo, new_hi = lo[new].repeat(2), hi[new].repeat(2)
            new_lo[1::2] = new_hi[::2] = 0.5 * (new_lo[::2] + new_hi[::2])
            new_half = 0.5 * (new_hi - new_lo)
            size = lo.size + new_lo.size
            if halved is None:           # the pass's first split
                left_half = np.zeros(size, dtype=np.intp)
                halved = np.zeros(size, dtype=bool)
            else:
                left_half = np.concatenate([left_half, np.zeros_like(new_lo, np.intp)])
                halved = np.concatenate([halved, np.zeros_like(new_lo, bool)])
            left_half[new] = np.arange(lo.size, size, 2)
            halved[new] = True
            lo, hi = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi])
            half = np.concatenate([half, new_half])
            rows = np.concatenate([rows, table.factors(
                _kronrod_nodes(new_lo, new_hi, new_half))], axis=1)

        # Bisect in place: a split panel becomes its left and right halves,
        # so each point's panels stay contiguous and in order.
        parts = split + 1
        halves = split.repeat(parts).nonzero()[0]
        panels, owner = panels.repeat(parts), owner.repeat(parts)
        est = est.repeat(parts, axis=2)
        children = left_half[parents].repeat(2)
        children[1::2] += 1
        panels[halves] = children
        _family_rule(f, children, owner[halves], half, rows, est, halves)

    return out[0], out[1], sorted(failures, key=lambda p: p[0])
