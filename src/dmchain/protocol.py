"""Monte Carlo simulation of the adaptive coupling-estimation procedure.

The chain is probed at a tunable field B; outcome statistics depend only on
the effective coupling j = J/B (the model is written in field units), so a
round of M magnetization shots is a multinomial draw from the X-state
probabilities at j.  Each round estimates j by maximum likelihood on a grid
(with a golden-section refinement), converts back to J units, and the field
is retuned to the running inverse-variance average of the round estimates.
Variance bookkeeping therefore improves round over round, which is what the
adaptive narrative needs even when the starting guess is already optimal.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize_scalar

from .chain import ChainParams, chain_points, x_state
from .fisher import magnetization_fi
from .quadrature import DEFAULT_QUAD, QuadratureConfig

__all__ = [
    "ProtocolConfig",
    "RoundRecord",
    "ProtocolTrace",
    "CrbReport",
    "DegenerateLikelihoodWarning",
    "NonConvergenceWarning",
    "outcome_probabilities",
    "sample_outcomes",
    "mle_estimate",
    "MleResult",
    "adaptive_run",
    "crb_report",
]

# Refined maximizers are kept this far from the critical points, where the
# Fisher information diverges and the variance proxy would be zero.
EDGE_CLAMP = 1e-6
# A round estimate is "stable" when it sits within this many standard
# deviations of the running average.
STABLE_SIGMA = 3.0
# Effective-coupling Fisher information below this is treated as zero
# (working points carry F of order 0.1 to 40 in these units).
FISHER_FLOOR = 1e-8


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
    sign_switch: bool = False

    def __post_init__(self) -> None:
        if not all(np.isfinite([self.J_true, self.gamma, self.D, self.J_guess])):
            raise ValueError("parameters must be finite")
        if self.J_guess == 0.0:
            raise ValueError("J_guess must be nonzero (it sets the field)")
        if self.shots < 1 or self.rounds < 1:
            raise ValueError("shots and rounds must be positive")
        lo, hi, points = self.grid
        if not (lo < hi and points >= 2):
            raise ValueError("grid must be (lo, hi, points>=2) with lo < hi")


@dataclass(frozen=True)
class RoundRecord:
    """One measurement round: field setting, counts, running estimate."""

    B: float
    counts: Tuple[int, int, int, int]  # outcomes (uu, ud, du, dd)
    estimate: float                    # inverse-variance average so far
    variance_est: float
    at_edge: bool = False

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")
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
    """Probabilities over the outcomes on the first axis, divided by their
    sum; raises if any sum drifted from 1 beyond roundoff."""
    s = p.sum(axis=0)
    lost = ~((0.999999 < s) & (s < 1.000001))
    if lost.any():
        raise RuntimeError("probabilities lost normalization: sum=%r"
                           % float(np.extract(lost, s)[0]))
    return p / s


def sample_outcomes(probs: np.ndarray, shots: int, seed) -> np.ndarray:
    """Multinomial draw of outcome counts; seed may be int or Generator."""
    if shots < 1:
        raise ValueError("shots must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.multinomial(shots, probs)


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
    on the grid, refines the interior maximizer by golden section, and
    returns the estimate in J units with the local Cramer-Rao variance
    proxy B^2 / (M F(j_hat)).
    """
    counts = np.asarray(counts)
    shots = int(counts.sum())
    if shots < 1:
        raise ValueError("counts must contain at least one shot")
    js, _, log_table = _probability_curve(float(gamma), float(D),
                                          tuple(grid), quad)
    occupied = counts > 0
    ll = log_table[:, occupied] @ counts[occupied]
    k = int(np.argmax(ll))
    ll_max = ll[k]

    at_edge = k == 0 or k == len(js) - 1
    if int(occupied.sum()) == 1 and not at_edge:
        # single-cell counts can leave the likelihood flat over a stretch
        plateau = np.flatnonzero(ll >= ll_max - 1e-9 * max(1.0, abs(ll_max)))
        if plateau.size > 1:
            warnings.warn(
                "likelihood flat over [%g, %g]; returning the midpoint"
                % (js[plateau[0]], js[plateau[-1]]),
                DegenerateLikelihoodWarning,
            )
            j_hat = 0.5 * (js[plateau[0]] + js[plateau[-1]])
            at_edge = plateau[0] == 0 or plateau[-1] == len(js) - 1
            return _finish(j_hat, B, gamma, D, shots, at_edge, quad)

    if at_edge:
        return _finish(float(js[k]), B, gamma, D, shots, True, quad)

    def neg_ll(j: float) -> float:
        p = outcome_probabilities(ChainParams(float(j), gamma, D), quad)
        with np.errstate(divide="ignore"):
            lp = np.where(p > 0.0, np.log(np.maximum(p, 1e-300)), -np.inf)
        val = float(lp[occupied] @ counts[occupied])
        return -val if np.isfinite(val) else np.inf

    res = minimize_scalar(
        neg_ll,
        bracket=(float(js[k - 1]), float(js[k]), float(js[k + 1])),
        method="golden",
        options={"xtol": 1e-6},
    )
    j_hat = float(res.x) if np.isfinite(res.x) else float(js[k])
    if not (js[k - 1] <= j_hat <= js[k + 1]):  # golden wandered; keep the cell
        j_hat = float(js[k])
    return _finish(j_hat, B, gamma, D, shots, False, quad)


def _finish(j_hat, B, gamma, D, shots, at_edge, quad) -> MleResult:
    j_hat = _clamp_critical(j_hat)
    fisher = magnetization_fi(ChainParams(j_hat, gamma, D), "J", quad)
    # below the floor the round is uninformative; the B^2 factor would
    # otherwise fake arbitrarily small variances as the field collapses
    if fisher > FISHER_FLOOR and np.isfinite(fisher):
        variance = B * B / (shots * fisher)
    else:
        variance = math.inf
    return MleResult(estimate=j_hat * B, variance_est=variance, at_edge=at_edge)


def adaptive_run(config: ProtocolConfig,
                 quad: QuadratureConfig = DEFAULT_QUAD) -> ProtocolTrace:
    """Run the adaptive field-retuning protocol.

    Round 1 measures at B = J_guess.  Later rounds retune the field to the
    running estimate (its negative while sign_switch is active and the
    estimate has not yet stabilized, to work the wide side of the
    information profile first).  The running estimate is the
    inverse-variance average of the round MLEs, so its variance proxy is
    non-increasing by construction; convergence additionally demands every
    round estimate lands within 3 sigma of the running average.
    """
    rng = np.random.default_rng(config.seed)

    records = []
    weight_sum = 0.0
    weighted_estimate = 0.0
    running = None          # inverse-variance average so far
    running_var = math.inf
    stable = True           # falsified by any 3-sigma break
    seen_stable = False     # at least one round landed within 3 sigma
    switched = not config.sign_switch
    B = config.J_guess

    for _ in range(config.rounds):
        # nature answers at the true coupling whatever the estimator grid
        j_true = config.J_true / B
        probs = outcome_probabilities(ChainParams(j_true, config.gamma, config.D), quad)
        counts = sample_outcomes(probs, config.shots, rng)
        est, var, at_edge = mle_estimate(
            counts, B, config.gamma, config.D, config.grid, quad)
        if at_edge:
            stable = False

        if running is not None and np.isfinite(var) and np.isfinite(running_var):
            if abs(est - running) > STABLE_SIGMA * math.sqrt(var + running_var):
                stable = False
            else:
                seen_stable = True
        elif running is not None and not np.isfinite(var):
            stable = False

        if np.isfinite(var) and var > 0.0:
            weight_sum += 1.0 / var
            weighted_estimate += est / var
        if weight_sum > 0.0:
            running = weighted_estimate / weight_sum
            running_var = 1.0 / weight_sum
        else:
            running = est
            running_var = math.inf

        records.append(RoundRecord(
            B=B,
            counts=tuple(int(c) for c in counts),
            estimate=float(running),
            variance_est=float(running_var),
            at_edge=at_edge,
        ))

        if not switched and seen_stable:
            switched = True  # refine on the steep side from now on
        B = running if switched else -running
        if B == 0.0:
            stable = False
            break

    converged = bool(
        stable
        and len(records) == config.rounds
        and np.isfinite(records[-1].variance_est)
    )
    if not converged:
        warnings.warn(
            "adaptive run did not converge; consider a different J_guess",
            NonConvergenceWarning,
        )
    final = records[-1] if records else None
    return ProtocolTrace(
        rounds=tuple(records),
        converged=converged,
        final_estimate=final.estimate if final else math.nan,
        final_variance=final.variance_est if final else math.inf,
    )


@dataclass(frozen=True)
class CrbReport:
    """Ensemble variance against the fixed-field Cramer-Rao bound."""

    crb_reference: float                 # 1 / (M F(J_true)) at unit field
    unattainable: bool                   # F(J_true) carries no information
    per_round_empirical: Tuple[float, ...]
    per_round_median_varest: Tuple[float, ...]

    def ratios(self) -> Tuple[float, ...]:
        if self.unattainable:
            return tuple(math.nan for _ in self.per_round_empirical)
        return tuple(v / self.crb_reference for v in self.per_round_empirical)


def crb_report(traces: Sequence[ProtocolTrace], config: ProtocolConfig,
               quad: QuadratureConfig = DEFAULT_QUAD) -> CrbReport:
    """Compare seed-ensemble estimator variance with 1/(M F(J_true))."""
    if not traces:
        raise ValueError("need at least one trace")
    fisher = magnetization_fi(
        ChainParams(config.J_true, config.gamma, config.D), "J", quad)
    unattainable = not (np.isfinite(fisher) and fisher > 1e-12)
    crb = math.inf if unattainable else 1.0 / (config.shots * fisher)

    n_rounds = max(len(t.rounds) for t in traces)
    empirical, med_proxy = [], []
    for k in range(n_rounds):
        ests = [t.rounds[k].estimate for t in traces if len(t.rounds) > k]
        proxies = [t.rounds[k].variance_est for t in traces if len(t.rounds) > k]
        empirical.append(float(np.var(ests, ddof=1)) if len(ests) > 1 else math.nan)
        med_proxy.append(float(np.median(proxies)))
    return CrbReport(
        crb_reference=crb,
        unattainable=unattainable,
        per_round_empirical=tuple(empirical),
        per_round_median_varest=tuple(med_proxy),
    )
