"""Feature detection on information curves: bumps, peaks, loss thresholds.

The anti-symmetric exchange reshapes H(J) between the divergences; the
classifier turns the verbal plot descriptions (a shoulder appears, then a
secondary maximum) into computable predicates on a sampled curve, and the
threshold finders bisect the classification boundary in D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .chain import chain_points
from .errors import (FlatProfile, InsufficientResolution, check_count,
                     check_grid)
from .fisher import block_qfi, cell_peak
from .quadrature import DEFAULT_QUAD, QuadratureConfig

__all__ = [
    "FeatureReport",
    "InsufficientResolution",
    "FlatProfile",
    "classify_curve",
    "detect_features",
    "detect_d_loss",
    "default_curve",
]

# Window between the left divergence and the zero-information point.  The
# shoulder structure sits hard against the divergence, so the left margin
# must be small.
WINDOW = (-1.0 + 2e-3, -1e-2)
MIN_POINTS = 200
DEFAULT_POINTS = 281
# H-peaks need to clear this fraction of the curve scale to count.
PEAK_PROMINENCE = 1e-6
# Slope extrema (shoulders) need this fraction of the full slope range.
SLOPE_PROMINENCE = 1e-2
BRACKET_WIDTH = 1e-3


@dataclass(frozen=True)
class FeatureReport:
    """Classifications per D plus detected thresholds for one anisotropy."""

    gamma: float
    classifications: Dict[float, str]
    d_bump: Optional[float] = None
    d_bump_bracket: Optional[Tuple[float, float]] = None
    d_peak: Optional[float] = None
    d_peak_bracket: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        if self.d_bump is not None and self.d_peak is not None:
            if self.d_bump > self.d_peak + 1e-12:
                raise ValueError("bump threshold cannot exceed peak threshold")


def _h_curve(js: np.ndarray, gamma: float, D: float,
             quad: QuadratureConfig) -> np.ndarray:
    """H(J) for the coupling at every J of js, as one batched quadrature."""
    return block_qfi(chain_points(js, gamma, D, ("J",), quad))[0][0, 0]


def default_curve(
    gamma: float,
    D: float,
    points: int = DEFAULT_POINTS,
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample H(J) for the coupling on the standard detection window."""
    js = np.linspace(WINDOW[0], WINDOW[1], points)
    return js, _h_curve(js, gamma, D, quad)


def _has_peak(x: np.ndarray, prominence: float) -> bool:
    """Whether x has a peak whose prominence is at least `prominence`.

    A peak is a sample, or a flat run of equal samples, that the curve
    enters by a strict rise and leaves by a strict fall; so the first and
    last samples are never peaks.  On each side of a peak, its base is the
    lowest sample between the peak and the nearest sample strictly higher
    than the peak, or the end of the curve if there is none.  The
    prominence is the peak's height above the higher of its two bases.
    These are the usual topographic definitions of signal-processing peak
    finders; the tests check this function against one.
    """
    # Collapse flat runs: a peak is then a run above both neighbouring runs.
    starts = np.ones(x.size, dtype=bool)
    starts[1:] = x[1:] != x[:-1]
    runs = x[starts]
    inner = runs[1:-1]
    tops = np.flatnonzero((inner > runs[:-2]) & (inner > runs[2:])) + 1
    for k in tops:
        top = runs[k]
        higher = np.flatnonzero(runs > top)
        left = higher[higher < k]
        right = higher[higher > k]
        lo = left[-1] + 1 if left.size else 0
        hi = right[0] if right.size else runs.size
        base = max(runs[lo:k].min(), runs[k + 1:hi].min())
        if top - base >= prominence:
            return True
    return False


def _classify_once(js: np.ndarray, hs: np.ndarray) -> str:
    scale = float(np.abs(hs).max())
    if scale == 0.0:
        return "monotone"
    if _has_peak(hs, PEAK_PROMINENCE * scale):
        return "peak"
    # shoulder: the log-slope has an interior extremum.  The samples are
    # quadrature-clean, so raw centered differences need no smoothing
    # (smoothing underfits the steep flank and invents wiggles).
    d1 = np.gradient(np.log(hs), js)
    span = float(d1.max() - d1.min())
    # slope variation at roundoff level is no structure at all, and the
    # relative prominence gate must not be allowed to chase it
    if span <= 1e-9 * max(1.0, float(np.abs(d1).max())):
        return "monotone"
    bar = SLOPE_PROMINENCE * span
    return "bump" if _has_peak(d1, bar) or _has_peak(-d1, bar) else "monotone"


def _checked_curve(js, hs) -> Tuple[np.ndarray, np.ndarray]:
    """The curve as float arrays, or ValueError if it cannot be classified."""
    js = np.asarray(js, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if js.shape != hs.shape or js.ndim != 1:
        raise ValueError("expected matching 1-D abscissa and ordinate arrays")
    if not (np.all(np.isfinite(js)) and np.all(np.isfinite(hs))):
        raise ValueError("curve must be finite")
    if not np.all(np.diff(js) > 0):
        raise ValueError("abscissa must be strictly increasing")
    if np.any(hs <= 0.0):
        raise ValueError("information curve must be positive")
    return js, hs


def _classify_fine_and_coarse(js: np.ndarray, hs: np.ndarray) -> Tuple[str, str]:
    return _classify_once(js, hs), _classify_once(js[::2], hs[::2])


def classify_curve(js: Sequence[float], hs: Sequence[float]) -> str:
    """Classify a sampled H(J) curve as monotone, bump, or peak.

    It is a peak if H has a peak (see :func:`_has_peak`) of prominence at
    least ``PEAK_PROMINENCE`` times max H.  Otherwise it is a bump if the
    log-slope d log H / dJ has a peak or a trough of prominence at least
    ``SLOPE_PROMINENCE`` times the slope's range, and else monotone.  The
    verdict must survive halving the resolution, otherwise the curve is
    declared under-sampled.
    """
    js, hs = _checked_curve(js, hs)
    if len(js) < MIN_POINTS:
        raise ValueError("need at least %d points" % MIN_POINTS)
    full, half = _classify_fine_and_coarse(js, hs)
    if full != half:
        raise InsufficientResolution(
            "classification unstable under refinement (%s vs %s)" % (full, half))
    return full


_ORDER = {"monotone": 0, "bump": 1, "peak": 2}


def _bisect_boundary(classify: Callable[[float, bool], str], d_lo, d_hi,
                     threshold):
    """Smallest D whose class reaches `threshold`, bracketed to 1e-3.

    Probing lands arbitrarily close to the transition, where the verdict
    legitimately flips with resolution, so boundary probes are non-strict.
    """
    lo, hi = d_lo, d_hi
    while hi - lo > BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        cls = classify(mid, False)
        if _ORDER[cls] >= threshold:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), (lo, hi)


def detect_features(
    gamma: float,
    d_values: Sequence[float],
    d_scan: Optional[Tuple[float, float]] = None,
    points: int = DEFAULT_POINTS,
    quad: QuadratureConfig = DEFAULT_QUAD,
    sampler: Callable = default_curve,
) -> FeatureReport:
    """Classify H(J) curves for each D and locate the D thresholds.

    d_scan widens the search interval for the bump/peak onsets; when
    omitted the scan runs over [min(d_values), max(d_values)].  A
    threshold is reported only when the scan interval brackets it.

    ``sampler(gamma, D, n, quad)`` returns ``(js, hs)``.  It is called once
    per distinct D, with ``n = 2 * points - 1``; the curve must be 1-D,
    increasing in J, finite and positive (ValueError otherwise).  Its even
    points are the coarse curve that the class must agree with, so they
    should be the ``points``-point sampling (as ``np.linspace`` gives).
    """
    if len(d_values) == 0:
        raise ValueError("need at least one D value")
    check_count("points", points, 2)
    lo, hi = d_scan if d_scan is not None else (min(d_values), max(d_values))
    if not lo <= hi:
        raise ValueError("scan interval must have lo <= hi, got %r" % ((lo, hi),))
    verdicts: Dict[float, Tuple[str, str]] = {}  # D -> (full, even points)

    def classify(D: float, strict: bool = True) -> str:
        D = float(D)
        if D not in verdicts:
            curve = _checked_curve(*sampler(gamma, D, 2 * points - 1, quad))
            verdicts[D] = _classify_fine_and_coarse(*curve)
        fine, coarse = verdicts[D]
        # a non-strict boundary probe keeps the finer grid's verdict
        if strict and fine != coarse:
            raise InsufficientResolution(
                "classification of D=%g unstable under refinement" % D)
        return fine

    classifications = {float(D): classify(D) for D in d_values}
    c_lo = classify(lo)
    c_hi = classify(hi)

    d_bump = bump_bracket = d_peak = peak_bracket = None
    if _ORDER[c_lo] < 1 <= _ORDER[c_hi]:
        d_bump, bump_bracket = _bisect_boundary(classify, lo, hi, 1)
    if _ORDER[c_lo] < 2 <= _ORDER[c_hi]:
        d_peak, peak_bracket = _bisect_boundary(classify, lo, hi, 2)
    return FeatureReport(
        gamma=gamma,
        classifications=classifications,
        d_bump=d_bump,
        d_bump_bracket=bump_bracket,
        d_peak=d_peak,
        d_peak_bracket=peak_bracket,
    )


def _integrated_h(gamma: float, ds: np.ndarray, j_points: int,
                  quad: QuadratureConfig) -> np.ndarray:
    """Trapezoid integral of H over J in [1.2, 2] at each D of ds.

    All the (D, J) points are evaluated as one batched quadrature.
    """
    ds = np.asarray(ds, dtype=float)
    js = np.linspace(1.2, 2.0, j_points)
    hs = _h_curve(np.tile(js, ds.size), gamma, np.repeat(ds, j_points), quad)
    return np.trapezoid(hs.reshape(ds.size, j_points), js, axis=1)


def detect_d_loss(
    gamma: float,
    d_range: Tuple[float, float] = (0.0, 0.4),
    d_points: int = 17,
    j_points: int = 81,
    quad: QuadratureConfig = DEFAULT_QUAD,
):
    """D that maximizes the integrated information on the far side.

    Beyond this value raising D stops paying for itself: the curves sink
    over the whole interval.  The profile is the trapezoid integral of H
    over ``j_points`` couplings in [1.2, 2] at ``d_points`` values of D
    spanning ``d_range``.  An interior grid maximizer k is refined from
    the profile alone by ``fisher.cell_peak``, the rule that starts the
    protocol's likelihood scoring: the stationary point of the quartic
    through the profile at k-2..k+2 if it lies between the neighbours of
    k, else the vertex of the parabola through k-1..k+1 (the only one at
    k = 1 or k = d_points - 2).  Returns (d_loss, bracket,
    (d_grid, profile)), from which d_loss can be recomputed.  Raises
    ValueError unless ``d_range`` is finite with lo < hi,
    ``d_points >= 3`` and ``j_points >= 2``.
    """
    check_count("d_points", d_points, 3)
    check_count("j_points", j_points, 2)
    check_grid("d_range", (*d_range, d_points))
    ds = np.linspace(*d_range, d_points)
    profile = _integrated_h(gamma, ds, j_points, quad)
    top = float(profile.max())
    if top <= 0.0 or (top - profile.min()) < 0.01 * top:
        raise FlatProfile("integrated information varies by less than 1%")
    k = int(np.argmax(profile))
    if k == 0 or k == d_points - 1:
        # boundary maximizer: report the endpoint with a one-cell bracket
        lo = ds[max(k - 1, 0)]
        hi = ds[min(k + 1, d_points - 1)]
        return float(ds[k]), (float(lo), float(hi)), (ds, profile)
    bracket = (float(ds[k - 1]), float(ds[k + 1]))
    return cell_peak(ds, profile, k), bracket, (ds, profile)
