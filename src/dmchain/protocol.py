"""Monte Carlo simulation of the adaptive coupling-estimation procedure.

The chain is probed at a tunable field B; outcome statistics depend only on
the effective coupling j = J/B (the model is written in field units), so a
round of M magnetization shots is a multinomial draw from the X-state
probabilities at j.  Each round estimates j by maximum likelihood: the grid
maximizer is refined inside its grid cell by scoring on the analytic score,
from the peak of the quartic through five tabulated log-likelihoods (the
cell-peak rule that ``features`` also uses) and with secant steps near
|j| = 1; the Fisher information of the last scoring pass gives the
variance proxy, and the estimate is converted back to J units.
The field is retuned to the running inverse-variance average of the round
estimates.
Variance bookkeeping therefore improves round over round, which is what the
adaptive narrative needs even when the starting guess is already optimal.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Tuple

import numpy as np

from .chain import ChainParams, chain_point, chain_points, x_state
from .errors import check_count, check_grid, is_count
from .fisher import cell_peak, classical_fi_point, magnetization_fi
from .quadrature import DEFAULT_QUAD, QuadratureConfig

__all__ = [
    "ProtocolConfig",
    "RoundRecord",
    "ProtocolTrace",
    "DegenerateLikelihoodWarning",
    "NonConvergenceWarning",
    "outcome_probabilities",
    "sample_outcomes",
    "mle_estimate",
    "MleResult",
    "adaptive_run",
]

# Refined maximizers are kept this far from the critical points, where the
# Fisher information diverges and the variance proxy would be zero.
EDGE_CLAMP = 1e-6
# Fisher scoring in the grid cell stops once a step is below this fraction
# of max(1, |j|), or after SCORING_MAX_ITER passes.
SCORING_TOL = 1e-9
SCORING_MAX_ITER = 40
# A round estimate is "stable" when it sits within this many standard
# deviations of the running average.
STABLE_SIGMA = 3.0
# Effective-coupling Fisher information below this is treated as zero
# (working points carry F of order 0.1 to 40 in these units).
FISHER_FLOOR = 1e-8
_LOST_NORMALIZATION = "probabilities lost normalization: sum=%r"


class DegenerateLikelihoodWarning(RuntimeWarning):
    """All counts in one cell and the likelihood is flat over an interval."""


class NonConvergenceWarning(RuntimeWarning):
    """The adaptive procedure did not settle; try a different guess."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Inputs of one adaptive run."""

    J_true: float
    gamma: float
    D: float
    J_guess: float
    shots: int = 10_000
    rounds: int = 3
    grid: Tuple[float, float, int] = (-2.5, 2.5, 801)
    seed: int = 0

    def __post_init__(self) -> None:
        if not all(np.isfinite([self.J_true, self.gamma, self.D, self.J_guess])):
            raise ValueError("parameters must be finite")
        if self.J_guess == 0.0:
            raise ValueError("J_guess must be nonzero (it sets the field)")
        check_count("shots", self.shots, 1)
        check_count("rounds", self.rounds, 1)
        check_count("seed", self.seed, 0)
        check_grid("grid", self.grid)


@dataclass(frozen=True)
class RoundRecord:
    """One measurement round: field setting, counts, running estimate."""

    B: float
    counts: Tuple[int, int, int, int]  # outcomes (uu, ud, du, dd)
    estimate: float                    # inverse-variance average so far
    variance_est: float
    at_edge: bool = False

    def __post_init__(self) -> None:
        _check_round(self.counts, self.B)
        if not (self.variance_est >= 0.0 or math.isinf(self.variance_est)):
            raise ValueError("variance_est must be nonnegative")


@dataclass(frozen=True)
class ProtocolTrace:
    """Full record of an adaptive run."""

    rounds: Tuple[RoundRecord, ...]
    converged: bool
    final_estimate: float
    final_variance: float

    def jsonl(self) -> str:
        """One JSON record per round (schema mirrored in the CLI docs)."""
        lines = []
        for k, r in enumerate(self.rounds, start=1):
            lines.append(json.dumps({
                "round": k,
                "B": r.B,
                "counts": list(r.counts),
                "estimate": r.estimate,
                "variance_est": r.variance_est,
                "at_edge": r.at_edge,
            }, sort_keys=True))
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {
            "converged": self.converged,
            "final_estimate": self.final_estimate,
            "final_variance": self.final_variance,
            "rounds": len(self.rounds),
        }


class MleResult(NamedTuple):
    estimate: float       # J units (j_hat times B)
    variance_est: float   # J units, 1/(M F) mapped through B
    at_edge: bool


def outcome_probabilities(
    effective: ChainParams,
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> np.ndarray:
    """Magnetization outcome distribution (uu, ud, du, dd) at j = J/B."""
    return _normalized(x_state(effective, quad).probabilities())


def _normalized(p: np.ndarray) -> np.ndarray:
    """Populations over the outcomes on the first axis, clipped at 0 and
    divided by their sum; raises if any sum drifted from 1 beyond roundoff."""
    p = np.clip(p, 0.0, None)
    s = p.sum(axis=0)
    lost = ~((0.999999 < s) & (s < 1.000001))
    if lost.any():
        raise RuntimeError(_LOST_NORMALIZATION % float(np.extract(lost, s)[0]))
    return p / s


def sample_outcomes(probs: np.ndarray, shots: int, seed) -> np.ndarray:
    """Multinomial draw of outcome counts; seed may be int or Generator.
    Refuses a shot count that is not a positive integer."""
    check_count("shots", shots, 1)
    return np.random.default_rng(seed).multinomial(shots, probs)


@lru_cache(maxsize=32)
def _probability_curve(gamma: float, D: float, grid: Tuple[float, float, int],
                       quad: QuadratureConfig):
    """Outcome probabilities tabulated over the whole estimator grid.

    One batched quadrature; pure in its arguments, so ensembles and
    rounds share one table.
    """
    lo, hi, points = grid
    js = np.linspace(lo, hi, points)
    states = chain_points(js, gamma, D, (), quad).state
    table = np.ascontiguousarray(_normalized(states.probabilities()).T)
    with np.errstate(divide="ignore"):
        log_table = np.where(table > 0.0, np.log(np.maximum(table, 1e-300)), -np.inf)
    return js, table, log_table


@lru_cache(maxsize=32)
def _nature_probabilities(j: float, gamma: float, D: float,
                          quad: QuadratureConfig) -> np.ndarray:
    """Read-only :func:`outcome_probabilities` at the effective coupling j.

    Pure in its arguments: every seed of an ensemble measures round 1 at
    the same j = J_true / J_guess, so they share one pass.
    """
    probs = outcome_probabilities(ChainParams(j, gamma, D), quad)
    probs.flags.writeable = False
    return probs


def _check_round(counts, B) -> None:
    """Refuse counts that are not four nonnegative integers, or a field
    that is not finite and nonzero."""
    if not (len(counts) == 4 and all(is_count(n, 0) for n in counts)):
        raise ValueError("counts must be four nonnegative integers, got %r"
                         % (counts,))
    if not (math.isfinite(B) and B != 0.0):
        raise ValueError("B must be finite and nonzero, got %r" % (B,))


def _clamp_critical(j: float) -> float:
    d = abs(j) - 1.0
    if abs(d) < EDGE_CLAMP:
        j = math.copysign(1.0 + (EDGE_CLAMP if d >= 0.0 else -EDGE_CLAMP), j)
    return j


def mle_estimate(
    counts: np.ndarray,
    B: float,
    gamma: float,
    D: float,
    grid: Tuple[float, float, int],
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> MleResult:
    """Maximum-likelihood coupling from one round of counts.

    Maximizes the multinomial log-likelihood over the effective coupling j
    on the grid, then refines an interior maximizer by Fisher scoring on
    the analytic score inside its grid cell.  Returns the estimate in J
    units with the local Cramer-Rao variance proxy B^2 / (M F(j_hat)),
    where F comes from the last scoring pass.
    """
    # a list keeps its bools, which an array of them would make integers
    c = (list(counts) if isinstance(counts, (list, tuple))
         else np.atleast_1d(counts).tolist())
    _check_round(c, B)
    check_grid("grid", grid)
    shots = sum(c)
    if shots < 1:
        raise ValueError("counts must contain at least one shot")
    js, _, log_table = _probability_curve(float(gamma), float(D),
                                          tuple(grid), quad)
    occupied = [i for i, n in enumerate(c) if n > 0]
    weights = np.array(c)[occupied]
    ll = log_table[:, occupied] @ weights
    k = int(ll.argmax())
    ll_max = ll[k]

    at_edge = k == 0 or k == len(js) - 1
    j_hat, refine = float(js[k]), not at_edge
    if len(occupied) == 1 and not at_edge:
        # single-cell counts can leave the likelihood flat over a stretch
        plateau = np.flatnonzero(ll >= ll_max - 1e-9 * max(1.0, abs(ll_max)))
        if plateau.size > 1:
            warnings.warn(
                "likelihood flat over [%g, %g]; returning the midpoint"
                % (js[plateau[0]], js[plateau[-1]]),
                DegenerateLikelihoodWarning,
            )
            j_hat, refine = 0.5 * (js[plateau[0]] + js[plateau[-1]]), False
            at_edge = bool(plateau[0] == 0 or plateau[-1] == len(js) - 1)

    if refine:
        j_hat, fisher = _score_refine(weights, occupied, shots, gamma, D,
                                      js, ll, k, quad)
    else:
        j_hat = _clamp_critical(j_hat)
        fisher = magnetization_fi(ChainParams(j_hat, gamma, D), "J", quad)
    # below the floor the round is uninformative; the B^2 factor would
    # otherwise fake arbitrarily small variances as the field collapses
    if fisher > FISHER_FLOOR and math.isfinite(fisher):
        variance = B * B / (shots * fisher)
    else:
        variance = math.inf
    return MleResult(estimate=j_hat * B, variance_est=variance, at_edge=at_edge)


def _score_refine(weights, occupied, shots, gamma, D, js, ll, k, quad):
    """Likelihood maximizer in the grid cell [js[k-1], js[k+1]] around the
    grid maximizer js[k] of the table log-likelihoods ``ll``, by scoring on
    the analytic score of a round of ``shots`` with counts ``weights`` (an
    array) on the ``occupied`` outcomes.

    Starts at :func:`cell_peak` of ``ll``: the stationary point of the
    quartic through ll[k-2..k+2] if it lies inside the cell, else the
    vertex of the parabola through ll[k-1..k+1].  Each iterate is one derivative pass, which gives the
    score sum n_i p_i'/p_i and F.  The step divides the score by M F or,
    once the last two iterates are within 0.3 ||j| - 1| of each other, by
    the secant slope of their scores: near |j| = 1, M F and the
    likelihood's curvature differ.  The bracket shrinks on the sign of the
    score; a step that leaves it, or a slope that is not finite and
    positive, is replaced by bisection.  Returns the last evaluated
    iterate and its F, also when the SCORING_MAX_ITER passes run out.
    """
    lo, hi = float(js[k - 1]), float(js[k + 1])
    nxt = _clamp_critical(cell_peak(js, ll, k))
    j_prev = s_prev = math.nan
    for _ in range(SCORING_MAX_ITER):
        j = nxt
        point = chain_point(ChainParams(j, gamma, D), ("J",), quad)
        score, fisher = _scoring_step(weights, occupied,
                                      point.state.populations(),
                                      point.dstate["J"].populations())
        slope = shots * fisher
        # j != j_prev: a step of zero would have stopped the loop
        if abs(j - j_prev) <= 0.3 * abs(abs(j) - 1.0):
            secant = (s_prev - score) / (j - j_prev)
            if 0.0 < secant < math.inf:
                slope = secant
        j_prev, s_prev = j, score
        if score > 0.0:
            lo = j
        elif score < 0.0:
            hi = j
        nxt = j + score / slope if 0.0 < slope < math.inf else math.nan
        if not lo < nxt < hi:            # also catches a nan step
            nxt = 0.5 * (lo + hi)
        nxt = _clamp_critical(nxt)
        # a clamp onto an end of the bracket leaves no progress to make:
        # the maximizer lies in the band excluded around |j| = 1
        if not lo < nxt < hi or abs(nxt - j) <= SCORING_TOL * max(1.0, abs(j)):
            break
    return j, fisher


def _scoring_step(weights, occupied, probs, dprobs):
    """Score sum_i n_i p_i'/p_i over the ``occupied`` outcomes (counts
    ``weights``) and F from float populations and J derivatives, with the
    bits of :func:`_normalized` (clip -0.0 to 0.0, keep NaN) and ``@``."""
    p = [0.0 if x <= 0.0 else x for x in probs]
    s = 0.0
    for x in p:
        s += x
    if not 0.999999 < s < 1.000001:
        raise RuntimeError(_LOST_NORMALIZATION % s)
    # dp / 0 is +-inf, or NaN for dp = 0; inf - inf in the sum is NaN
    ratios = [dprobs[i] / (p[i] / s) if p[i] else dprobs[i] * math.inf
              for i in occupied]
    score = (math.nan if math.inf in ratios and -math.inf in ratios
             else float(weights @ ratios))
    return score, classical_fi_point(probs, dprobs)


def adaptive_run(config: ProtocolConfig,
                 quad: QuadratureConfig = DEFAULT_QUAD) -> ProtocolTrace:
    """Run the adaptive field-retuning protocol.

    Round 1 measures at B = J_guess and each later round at the running
    estimate: the inverse-variance average of the round MLEs, or the
    round MLE while none has a finite variance.  A zero field ends the
    run unconverged; otherwise it converges with every round run, a
    finite final variance and no round at a grid edge, of infinite
    variance after round 1, or more than 3 sigma off the running estimate.
    """
    rng = np.random.default_rng(config.seed)
    records = []
    weight = weighted = 0.0     # sums of 1/var and est/var
    stable = True
    B = config.J_guess
    for _ in range(config.rounds):
        # nature answers at the true coupling whatever the estimator grid
        probs = _nature_probabilities(config.J_true / B, config.gamma,
                                      config.D, quad)
        counts = sample_outcomes(probs, config.shots, rng)
        est, var, at_edge = mle_estimate(
            counts, B, config.gamma, config.D, config.grid, quad)
        if records:
            # an infinite running variance passes the 3-sigma test
            last, last_var = records[-1].estimate, records[-1].variance_est
            if not math.isfinite(var) or abs(est - last) > (
                    STABLE_SIGMA * math.sqrt(var + last_var)):
                stable = False
        stable = stable and not at_edge
        if 0.0 < var < math.inf:
            weight += 1.0 / var
            weighted += est / var
        records.append(RoundRecord(
            B=B, counts=tuple(counts.tolist()), at_edge=at_edge,
            estimate=float(weighted / weight if weight > 0.0 else est),
            variance_est=float(1.0 / weight if weight > 0.0 else math.inf)))
        B = records[-1].estimate
        if B == 0.0:
            stable = False
            break

    converged = (stable and len(records) == config.rounds
                 and math.isfinite(records[-1].variance_est))
    if not converged:
        warnings.warn(
            "adaptive run did not converge; consider a different J_guess",
            NonConvergenceWarning,
        )
    return ProtocolTrace(
        rounds=tuple(records),
        converged=converged,
        final_estimate=records[-1].estimate,
        final_variance=records[-1].variance_est,
    )
