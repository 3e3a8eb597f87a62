"""Adaptive two-spin magnetization protocol: sampling, MLE, retuning."""

import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import dmchain.chain as chain_mod
from dmchain import fisher, protocol, quadrature
from dmchain.chain import ChainParams, x_state
from dmchain.protocol import (EDGE_CLAMP, FISHER_FLOOR, STABLE_SIGMA,
                              DegenerateLikelihoodWarning, MleResult,
                              NonConvergenceWarning, ProtocolConfig,
                              ProtocolTrace, RoundRecord, _probability_curve,
                              adaptive_run, mle_estimate,
                              outcome_probabilities, sample_outcomes)
from dmchain.quadrature import DEFAULT_QUAD

GRID = (-2.5, 2.5, 801)


def quiet_run(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return adaptive_run(cfg)


# ------------------------------------------------------------ probabilities

def test_probabilities_from_state():
    p = outcome_probabilities(ChainParams(0.7, 0.5, 0.1))
    q = x_state(ChainParams(0.7, 0.5, 0.1)).probabilities()
    assert np.allclose(p, q / q.sum(), atol=1e-14)
    assert abs(p.sum() - 1.0) < 1e-12
    assert p[1] == p[2]


def test_probabilities_decoupled():
    p = outcome_probabilities(ChainParams(0.0, 1.0, 0.0))
    assert np.allclose(p, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_probability_table_matches_per_point_probabilities():
    # the batched table against the per-point route it replaced; the two
    # quadratures differ only in summation order
    js, table, log_table = _probability_curve(0.7, 0.1, GRID, DEFAULT_QUAD)
    assert js.shape == (801,) and table.shape == (801, 4)
    for i in range(0, 801, 40):
        ref = outcome_probabilities(ChainParams(float(js[i]), 0.7, 0.1))
        assert np.allclose(table[i], ref, rtol=0.0, atol=1e-13)
    assert np.array_equal(log_table[table > 0.0], np.log(table[table > 0.0]))


@pytest.mark.parametrize("gamma", [0.2, 0.7, 1.0])
def test_probabilities_even_in_coupling_without_dm(gamma):
    # at D = 0 the outcome distribution cannot tell j from -j, so the grid
    # argmax picks between mirror maxima by roundoff alone
    js, table, _ = _probability_curve(gamma, 0.0, GRID, DEFAULT_QUAD)
    assert np.abs(table - table[::-1]).max() <= 1e-14


# ----------------------------------------------------------------- sampling

def test_sampling_deterministic_and_conserving():
    p = outcome_probabilities(ChainParams(0.7, 0.5, 0.1))
    a = sample_outcomes(p, 10_000, seed=42)
    b = sample_outcomes(p, 10_000, seed=42)
    assert np.array_equal(a, b)
    assert a.sum() == 10_000
    assert not np.array_equal(a, sample_outcomes(p, 10_000, seed=43))


def test_sampling_degenerate_distribution():
    counts = sample_outcomes(np.array([1.0, 0.0, 0.0, 0.0]), 100, seed=0)
    assert list(counts) == [100, 0, 0, 0]


def test_sampling_accepts_generator():
    p = np.array([0.25, 0.25, 0.25, 0.25])
    rng = np.random.default_rng(5)
    a = sample_outcomes(p, 50, rng)
    b = sample_outcomes(p, 50, rng)  # same stream, advanced
    assert not np.array_equal(a, b)
    with pytest.raises(ValueError):
        sample_outcomes(p, 0, seed=0)


def test_sampling_refuses_fractional_shots():
    # multinomial would truncate 2.5 shots to 2
    p = np.array([0.25] * 4)
    for shots in (2.5, 2.0, np.float64(3.0)):
        with pytest.raises(ValueError, match="shots must be an integer"):
            sample_outcomes(p, shots, 0)
    assert sample_outcomes(p, np.int64(3), 0).sum() == 3


def test_sampling_chi_square_calibration():
    # frequencies consistent with the model distribution at 1e4 shots
    from scipy.stats import chisquare

    p = outcome_probabilities(ChainParams(0.7, 0.5, 0.1))
    rejected = 0
    for seed in range(60):
        counts = sample_outcomes(p, 10_000, seed=seed)
        stat, pval = chisquare(counts, f_exp=p * 10_000)
        if pval < 0.05:
            rejected += 1
    assert rejected <= 9  # ~3 expected at the 5% level


# ------------------------------------------------------------- validation

def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(J_true=0.5, gamma=1.0, D=0.0, J_guess=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(J_true=0.5, gamma=1.0, D=0.0, J_guess=1.0, shots=0)
    with pytest.raises(ValueError):
        ProtocolConfig(J_true=0.5, gamma=1.0, D=0.0, J_guess=1.0,
                       grid=(2.0, -2.0, 801))
    with pytest.raises(ValueError):
        ProtocolConfig(J_true=math.nan, gamma=1.0, D=0.0, J_guess=1.0)


@pytest.mark.parametrize("field", [
    dict(shots=2.5), dict(shots=10.0), dict(rounds=2.5), dict(seed=1.5),
    dict(seed=None), dict(grid=(-1.0, 1.0, 11.5)), dict(grid=(-1.0, 1.0, 11.0)),
], ids=["shots", "float-shots", "rounds", "seed", "no-seed", "grid",
        "float-grid"])
def test_config_rejects_non_integer_counts(field):
    with pytest.raises(ValueError, match="must be an integer"):
        ProtocolConfig(J_true=0.5, gamma=1.0, D=0.0, J_guess=1.0, **field)


@pytest.mark.parametrize("grid", [(-np.inf, 2.5, 801), (-2.5, np.inf, 801),
                                  (math.nan, 2.5, 801), (-2.5, math.nan, 801)])
def test_config_refuses_grid_bounds_that_are_not_finite(grid):
    with pytest.raises(ValueError, match="finite"):
        ProtocolConfig(0.5, 0.5, 0.0, 0.5, grid=grid)


def test_config_takes_numpy_integers():
    cfg = ProtocolConfig(J_true=0.5, gamma=1.0, D=0.0, J_guess=1.0,
                         shots=np.int64(100), rounds=np.int32(2),
                         seed=np.uint8(3), grid=(-1.0, 1.0, np.int64(11)))
    assert cfg == ProtocolConfig(J_true=0.5, gamma=1.0, D=0.0, J_guess=1.0,
                                 shots=100, rounds=2, seed=3,
                                 grid=(-1.0, 1.0, 11))


def test_round_record_validation():
    with pytest.raises(ValueError):
        RoundRecord(B=1.0, counts=(-1, 0, 0, 0), estimate=0.0, variance_est=1.0)
    with pytest.raises(ValueError):
        RoundRecord(B=1.0, counts=(1, 0, 0, 0), estimate=0.0, variance_est=-1.0)
    assert RoundRecord(B=-0.5, counts=(0, 2, np.int64(3), 4), estimate=0.5,
                       variance_est=0.1).counts[2] == 3


@pytest.mark.parametrize("field,match", [
    (dict(counts=(1, 2)), "four nonnegative integers"),
    (dict(counts=(1, 2, 3, 4, 5)), "four nonnegative integers"),
    (dict(counts=(1, 2, 3, 4.0)), "four nonnegative integers"),
    (dict(B=0.0), "finite and nonzero"),
    (dict(B=math.nan), "finite and nonzero"),
    (dict(B=math.inf), "finite and nonzero"),
], ids=["two_counts", "five_counts", "float_count", "zero_field",
        "nan_field", "inf_field"])
def test_round_record_refuses_bad_counts_and_fields(field, match):
    kw = dict(dict(B=1.0, counts=(1, 2, 3, 4), estimate=0.5,
                   variance_est=0.1), **field)
    with pytest.raises(ValueError, match=match):
        RoundRecord(**kw)


# -------------------------------------------------------------------- MLE

def test_mle_recovers_planted_coupling():
    # counts proportional to the model distribution at j0 = 0.5
    p0 = outcome_probabilities(ChainParams(0.5, 1.0, 0.1))
    counts = np.round(p0 * 1_000_000).astype(int)
    res = mle_estimate(counts, 1.0, 1.0, 0.1, GRID)
    assert not res.at_edge
    assert abs(res.estimate - 0.5) < 3.0 * math.sqrt(res.variance_est)
    assert abs(res.estimate - 0.5) < 1e-4


def test_mle_field_scaling():
    # doubling B doubles the coupling estimate and quadruples the variance
    p0 = outcome_probabilities(ChainParams(0.5, 1.0, 0.1))
    counts = np.round(p0 * 1_000_000).astype(int)
    a = mle_estimate(counts, 1.0, 1.0, 0.1, GRID)
    b = mle_estimate(counts, 2.0, 1.0, 0.1, GRID)
    assert b.estimate == pytest.approx(2.0 * a.estimate, rel=1e-12)
    assert b.variance_est == pytest.approx(4.0 * a.variance_est, rel=1e-12)


def test_mle_edge_detection():
    # truth below a grid that starts above it: likelihood piles at the rim
    p = outcome_probabilities(ChainParams(0.5, 1.0, 0.1))
    counts = sample_outcomes(p, 10_000, seed=0)
    res = mle_estimate(counts, 1.0, 1.0, 0.1, (1.5, 2.5, 41))
    assert res.at_edge
    assert res.estimate == 1.5
    # all-up counts on a grid anchored at the decoupled point
    res2 = mle_estimate(np.array([100, 0, 0, 0]), 1.0, 1.0, 0.0, (0.0, 0.2, 51))
    assert res2.at_edge
    assert res2.estimate == 0.0
    assert math.isinf(res2.variance_est)


def test_mle_flat_likelihood_midpoint():
    # gamma = 0 chain is fully polarized for every |j| < 1: any grid that
    # brackets that phase sees a flat interior plateau under all-up counts
    counts = np.array([100, 0, 0, 0])
    with pytest.warns(DegenerateLikelihoodWarning):
        res = mle_estimate(counts, 1.0, 0.0, 0.0, (-1.5, 1.5, 61))
    assert res.estimate == pytest.approx(0.0, abs=1e-12)
    assert not res.at_edge
    assert math.isinf(res.variance_est)


def test_flat_likelihood_run_writes_json_lines():
    cfg = ProtocolConfig(J_true=0.5, gamma=0.0, D=0.0, J_guess=1.0,
                         shots=100, rounds=2, grid=(-1.5, 1.5, 61))
    tr = quiet_run(cfg)
    assert type(tr.rounds[0].at_edge) is bool
    for line in tr.jsonl().strip().split("\n"):
        assert json.loads(line)["at_edge"] is False


def _grid_cell(counts, gamma, D, grid):
    """Grid points around the likelihood's grid maximizer, as mle_estimate
    finds it."""
    js, _, log_table = _probability_curve(gamma, D, grid, DEFAULT_QUAD)
    occupied = counts > 0
    k = int(np.argmax(log_table[:, occupied] @ counts[occupied]))
    return js, k


# (gamma, D, j, grid) of the rounds the estimator is checked on; each has
# F >= 1 per shot, where the bounded oracle below resolves j to about
# sqrt(eps / F) ~ 1.5e-8 (on flatter likelihoods it stalls near 1e-7)
ORACLE_ROUNDS = [
    (0.2, 0.0, -0.7, GRID), (0.2, 0.1, 0.995, GRID), (0.2, 0.3, -1.005, GRID),
    (0.7, 0.0, 0.9, GRID), (0.7, 0.1, -0.7, GRID), (0.7, 0.1, 1.008, GRID),
    (0.7, 0.3, -0.995, GRID), (1.0, 0.0, -1.005, GRID), (1.0, 0.1, 0.9, GRID),
    (1.0, 0.3, 1.6, GRID), (1.0, 0.1, 0.993, GRID), (0.7, 0.0, 1.6, GRID),
    (0.2, 0.0, 0.9, (0.02, 2.5, 801)), (0.2, 0.1, 1.008, (0.02, 2.5, 801)),
    (0.7, 0.0, 0.995, (0.02, 2.5, 801)), (0.7, 0.3, 0.9, (0.02, 2.5, 801)),
    (1.0, 0.0, 0.9, (0.02, 2.5, 801)), (1.0, 0.0, 0.995, (0.02, 2.5, 801)),
    (1.0, 0.1, 1.008, (0.02, 2.5, 801)), (1.0, 0.3, 1.6, (0.02, 2.5, 801)),
    (0.7, 0.1, 1.6, (0.02, 2.5, 801)), (0.2, 0.3, 0.995, (0.02, 2.5, 801)),
]


def test_mle_matches_bounded_likelihood_oracle():
    B = 1.25
    for seed, (gamma, D, j, grid) in enumerate(ORACLE_ROUNDS):
        p = outcome_probabilities(ChainParams(j, gamma, D))
        counts = sample_outcomes(p, 10_000, seed)
        js, k = _grid_cell(counts, gamma, D, grid)
        assert 0 < k < len(js) - 1
        occupied = counts > 0

        def neg_ll(x):
            q = outcome_probabilities(ChainParams(float(x), gamma, D))
            return -float(np.log(q[occupied]) @ counts[occupied])

        ref = minimize_scalar(neg_ll, bounds=(js[k - 1], js[k + 1]),
                              method="bounded", options={"xatol": 1e-10})
        res = mle_estimate(counts, B, gamma, D, grid)
        assert abs(res.estimate / B - ref.x) <= 1e-7, (gamma, D, j, grid)


def bounded_maximizer(counts, gamma, D, lo, hi):
    """The likelihood maximizer in [lo, hi] by scipy's bounded search on
    per-point probabilities, as the oracle test above finds it."""
    occupied = counts > 0

    def neg_ll(x):
        q = outcome_probabilities(ChainParams(float(x), gamma, D))
        return -float(np.log(q[occupied]) @ counts[occupied])

    return minimize_scalar(neg_ll, bounds=(lo, hi), method="bounded",
                           options={"xatol": 1e-10}).x


def _record_passes(monkeypatch):
    """Record the (J, tags) of every protocol.chain_point pass, and make
    any other quadrature route of mle_estimate fail."""
    passes = []
    real = protocol.chain_point

    def recording(params, tags=(), quad=DEFAULT_QUAD):
        passes.append((params.J, tuple(tags)))
        return real(params, tags, quad)

    def forbidden(*args, **kwargs):
        raise AssertionError("unexpected quadrature pass")

    monkeypatch.setattr(protocol, "chain_point", recording)
    for module, name in ((protocol, "x_state"),
                         (protocol, "outcome_probabilities"),
                         (fisher, "chain_point")):
        monkeypatch.setattr(module, name, forbidden)
    return passes


@pytest.mark.parametrize("max_iter", [1, 2, protocol.SCORING_MAX_ITER])
def test_interior_round_pass_budget(monkeypatch, max_iter):
    counts = sample_outcomes(outcome_probabilities(ChainParams(0.7, 0.7, 0.1)),
                             10_000, seed=0)
    _probability_curve(0.7, 0.1, GRID, DEFAULT_QUAD)
    monkeypatch.setattr(protocol, "SCORING_MAX_ITER", max_iter)
    passes = _record_passes(monkeypatch)
    fi_calls = []
    real_fi = protocol.classical_fi_point

    def counting_fi(probs, dprobs):
        fi_calls.append(1)
        return real_fi(probs, dprobs)

    monkeypatch.setattr(protocol, "classical_fi_point", counting_fi)
    res = mle_estimate(counts, 1.0, 0.7, 0.1, GRID)
    monkeypatch.undo()
    assert 1 <= len(passes) <= min(max_iter, 8)
    assert all(tags == ("J",) for _, tags in passes)
    assert len(fi_calls) == len(passes)
    # the variance proxy is F of the last pass, at the returned estimate,
    # also when the scoring passes run out
    assert passes[-1][0] == res.estimate
    fi = fisher.magnetization_fi(ChainParams(res.estimate, 0.7, 0.1), "J")
    assert res.variance_est == 1.0 / (10_000 * fi)


@pytest.mark.parametrize("gamma,D", [(0.7, 0.1), (1.0, 0.0)])
def test_round_with_grid_maximizer_on_critical_point(monkeypatch, gamma, D):
    counts = sample_outcomes(outcome_probabilities(ChainParams(1.0, gamma, D)),
                             10_000, seed=0)
    js, k = _grid_cell(counts, gamma, D, GRID)
    assert abs(js[k]) == 1.0
    passes = _record_passes(monkeypatch)
    res = mle_estimate(counts, 1.0, gamma, D, GRID)
    assert all(abs(abs(j) - 1.0) >= 0.999 * EDGE_CLAMP for j, _ in passes)
    assert js[k - 1] <= res.estimate <= js[k + 1]
    assert math.isfinite(res.variance_est)


@pytest.mark.parametrize("gamma,D,j0", [(0.7, 0.1, 1.0), (0.7, 0.1, -1.0),
                                        (0.2, 0.3, -1.0)])
def test_maximizer_inside_the_critical_band_stops(monkeypatch, gamma, D, j0):
    # counts planted at |j| = 1 put the maximizer inside the band that
    # iterates are clamped out of; the refinement stops on the band's edge
    counts = np.round(
        outcome_probabilities(ChainParams(j0, gamma, D)) * 1e7).astype(int)
    _probability_curve(gamma, D, GRID, DEFAULT_QUAD)
    passes = _record_passes(monkeypatch)
    res = mle_estimate(counts, 1.0, gamma, D, GRID)
    assert len(passes) <= 8
    assert res.estimate == pytest.approx(j0, abs=1.001 * EDGE_CLAMP)
    assert abs(abs(res.estimate) - 1.0) >= 0.999 * EDGE_CLAMP
    assert math.isfinite(res.variance_est)


@pytest.mark.parametrize("grid", [GRID, (0.02, 2.5, 801)],
                         ids=["symmetric", "one_sided"])
def test_near_critical_round_needs_few_passes(monkeypatch, grid):
    # a round whose maximizer is 4.7e-5 from |j| = 1, where M F and the
    # likelihood's curvature differ: Fisher steps from the parabola vertex
    # take 15 passes on it
    counts, B = np.array([7004, 1113, 1142, 741]), 0.901
    js, k = _grid_cell(counts, 1.0, 0.0, grid)
    ref = bounded_maximizer(counts, 1.0, 0.0, js[k - 1], js[k + 1])
    passes = _record_passes(monkeypatch)
    res = mle_estimate(counts, B, 1.0, 0.0, grid)
    assert len(passes) <= 8
    assert abs(abs(ref) - 1.0) < 1e-4
    assert abs(res.estimate / B - ref) <= 1e-7


def numpy_vertex(cell, ll):
    """The scoring start as numpy computed it: the parabola's vertex, in
    float64 scalars with division warnings off, if inside the cell."""
    lo, j, hi = (float(x) for x in cell)
    ll = np.asarray(ll, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = float(j + 0.25 * (hi - lo) * (ll[0] - ll[2])
                       / (ll[0] - 2.0 * ll[1] + ll[2]))
    return vertex if lo < vertex < hi else j


def first_scoring_iterate(monkeypatch, js, ll, k):
    """J of the first pass of _score_refine on the table log-likelihoods
    ``ll`` over the grid ``js`` with grid maximizer k, with warnings as
    errors."""
    first = []

    class Stop(Exception):
        pass

    def stop(params, tags=(), quad=DEFAULT_QUAD):
        first.append(params.J)
        raise Stop

    monkeypatch.setattr(protocol, "chain_point", stop)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Stop):
            protocol._score_refine(np.array([6000, 3000, 1000]), [0, 1, 3],
                                   10_000, 0.7, 0.1,
                                   np.asarray(js, dtype=float),
                                   np.asarray(ll, dtype=float), k,
                                   DEFAULT_QUAD)
    return first[0]


@pytest.mark.parametrize("ll", [
    [-1234.5, -1234.5, -1234.5],            # flat: 0 / 0
    [-math.inf, -12.0, -math.inf],          # -inf ends: nan
    [-math.inf, -12.0, -13.5],
    [-3.0, -2.0, -1.0],                     # zero denominator only
    [-1234.75, -1234.5, -1234.625],         # ordinary
], ids=["flat", "inf_ends", "inf_end", "zero_denominator", "ordinary"])
def test_first_scoring_iterate_is_the_numpy_vertex(monkeypatch, ll):
    # one grid point on each side of the maximizer: no quartic
    cell = [0.6, 0.60625, 0.6125]
    assert first_scoring_iterate(monkeypatch, cell, ll, 1) == (
        protocol._clamp_critical(numpy_vertex(cell, ll)))


def table_log_likelihood(gamma, D, j, seed):
    """Grid, grid maximizer k and table log-likelihoods, less their
    maximum, of a round of 10^4 shots at j on GRID."""
    counts = sample_outcomes(outcome_probabilities(ChainParams(j, gamma, D)),
                             10_000, seed)
    js, _, log_table = _probability_curve(gamma, D, GRID, DEFAULT_QUAD)
    occupied = counts > 0
    ll = log_table[:, occupied] @ counts[occupied]
    k = int(ll.argmax())
    return js, k, ll - ll[k]


@pytest.mark.parametrize("gamma,D,j,seed", [
    (0.7, 0.1, 0.7, 0), (1.0, 0.0, 0.9, 3), (0.2, 0.3, -1.3, 1)])
def test_first_scoring_iterate_is_the_quartic_peak(monkeypatch, gamma, D, j,
                                                   seed):
    js, k, ll = table_log_likelihood(gamma, D, j, seed)
    window, lo, hi = slice(k - 2, k + 3), js[k - 1], js[k + 1]
    roots = np.polynomial.Polynomial.fit(js[window], ll[window],
                                         4).deriv().roots()
    peak = [r.real for r in np.atleast_1d(roots)
            if r.imag == 0.0 and lo < r.real < hi]
    assert len(peak) == 1
    first = first_scoring_iterate(monkeypatch, js, ll, k)
    assert first != numpy_vertex(js[k - 1:k + 2], ll[k - 1:k + 2])
    assert abs(first - peak[0]) <= 1e-12 * (hi - lo)


# five table values, less their maximum, whose Newton search from the
# five-point vertex ends 1.12 cells from the middle point, outside the
# cell; the three inner ones put the parabola vertex at 0.21 cells
OUTSIDE_PEAK = [-0.8, -0.5, 0.0, -0.2, -9.4]


@pytest.mark.parametrize("case", ["k=1", "k=n-2", "outer_inf",
                                  "peak_outside"])
def test_first_scoring_iterate_falls_back_to_the_vertex(monkeypatch, case):
    js, k, ll = table_log_likelihood(0.7, 0.1, 0.7, 0)
    js, ll = js[k - 2:k + 3], ll[k - 2:k + 3].copy()
    if case == "k=1":
        js, ll, k = js[1:], ll[1:], 1
    elif case == "k=n-2":
        js, ll, k = js[:-1], ll[:-1], 2
    else:
        k = 2
        if case == "outer_inf":
            ll[0] = -math.inf
        else:
            ll = np.array(OUTSIDE_PEAK)
            peak = fisher._quartic_peak(OUTSIDE_PEAK, js[2], js[2] - js[1])
            assert not js[1] < peak < js[3]
    vertex = numpy_vertex(js[k - 1:k + 2], ll[k - 1:k + 2])
    assert vertex != js[k]
    assert fisher.cell_peak(js, ll, k) == vertex
    assert first_scoring_iterate(monkeypatch, js, ll, k) == vertex


def test_mle_uninformative_point_gets_infinite_variance():
    # all-up counts at gamma=1, D=0.1 pin j_hat ~ 0 where F vanishes;
    # without the floor the B^2 mapping would fake a tiny variance
    counts = np.array([100, 0, 0, 0])
    res = mle_estimate(counts, 1.0, 1.0, 0.1, GRID)
    assert abs(res.estimate) < 1e-2
    assert math.isinf(res.variance_est)


def test_mle_rejects_empty_counts():
    with pytest.raises(ValueError):
        mle_estimate(np.array([0, 0, 0, 0]), 1.0, 1.0, 0.1, GRID)


def test_mle_rejects_negative_counts():
    # as RoundRecord does; the sum 198 would pass for a round of shots
    with pytest.raises(ValueError, match="nonnegative"):
        mle_estimate([-5, 100, 100, 3], 1.0, 0.7, 0.1, GRID)


@pytest.mark.parametrize("counts", [
    [5000, 3000, 2000], [5000, 3000, 1000, 500, 500],
    [5000.5, 3000, 1000, 1000], np.array([5000.0, 3000.0, 1000.0, 1000.0]),
    np.array([[5000, 3000], [1000, 1000]]), 10_000,
], ids=["three", "five", "fractional", "float_array", "matrix", "scalar"])
def test_mle_refuses_counts_that_are_not_four_integers(counts):
    with pytest.raises(ValueError, match="four nonnegative integers"):
        mle_estimate(counts, 1.0, 0.7, 0.1, GRID)


@pytest.mark.parametrize("B", [0.0, -0.0, math.nan, math.inf, -math.inf])
def test_mle_refuses_a_field_that_is_not_finite_and_nonzero(B):
    # B = 0 would claim variance 0, B = nan return a nan estimate
    with pytest.raises(ValueError, match="finite and nonzero"):
        mle_estimate([5000, 3000, 1000, 1000], B, 0.7, 0.1, GRID)


# ------------------------------------------- scoring step in floats

def same_bits(a, b):
    """a and b are the same float: equal with the same sign, or both NaN."""
    return (math.isnan(a) and math.isnan(b)) or (
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


def array_scoring_step(counts, probs, dprobs):
    """The scoring step on arrays: _normalized, the score over the occupied
    outcomes as numpy computes it, and classical_fi of the raw populations."""
    occupied = counts > 0
    probs, dp = np.array(probs), np.array(dprobs)
    p = protocol._normalized(probs)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = float(counts[occupied] @ (dp[occupied] / p[occupied]))
    return score, float(fisher.classical_fi(probs, dp))


def float_scoring_step(counts, probs, dprobs):
    return protocol._scoring_step(counts[counts > 0],
                                  np.flatnonzero(counts).tolist(),
                                  probs, dprobs)


def outcome_draws(rng, n):
    """Counts, raw populations and their derivatives: populations near a
    distribution, some replaced by tiny, P_TOL, zero, -0.0 or slightly
    negative values, and derivatives over many scales, some exactly 0 or
    +-DP_TOL."""
    edges = (1e-14, fisher.P_TOL, 0.0, -0.0, -1e-10, 3e-7, math.nan)
    for _ in range(n):
        counts = rng.multinomial(10_000, rng.dirichlet(np.ones(4)))
        counts[rng.random(4) < 0.25] = 0
        counts[rng.integers(4)] += 1
        probs = rng.dirichlet(np.full(4, 0.7)).tolist()
        dprobs = (rng.normal(size=4) * 10.0 ** rng.uniform(-9, 2, 4)).tolist()
        for i in range(4):
            if rng.random() < 0.2:
                probs[i] = edges[rng.integers(len(edges) - (rng.random() > 0.02))]
            if rng.random() < 0.1:
                dprobs[i] = float(rng.choice([0.0, fisher.DP_TOL, -fisher.DP_TOL]))
        if rng.random() < 0.9:           # mostly still within 1e-6 of 1
            k = int(np.argmax(probs))
            probs[k] += 1.0 - sum(probs)
        yield counts, probs, dprobs


def outcome(route, *args):
    """The route's (score, F), or the type and message of what it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = route(*args)
        except RuntimeError as exc:
            return (type(exc), str(exc)), []
    return result, [w.category for w in caught]


def test_scoring_step_in_floats_equals_the_array_route_bit_for_bit():
    rng = np.random.default_rng(5)
    raised = divergent = 0
    for counts, probs, dprobs in outcome_draws(rng, 4000):
        got, got_warned = outcome(float_scoring_step, counts, probs, dprobs)
        want, want_warned = outcome(array_scoring_step, counts, probs, dprobs)
        assert got_warned == want_warned
        if isinstance(want[0], type):
            assert got == want
            raised += 1
        else:
            assert all(map(same_bits, got, want)), (counts, probs, dprobs)
            divergent += math.isinf(want[1])
        # the float F of magnetization_fi is the array F of fisher_point
        f = outcome(fisher.classical_fi_point, probs, dprobs)
        assert f[1] == outcome(fisher.classical_fi, np.array(probs),
                               np.array(dprobs))[1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert same_bits(f[0], float(fisher.classical_fi(
                np.array(probs), np.array(dprobs))))
    assert 100 < raised < 2000 and divergent > 100


@pytest.mark.parametrize("probs,dprobs,counts", [
    # an outcome at exactly P_TOL stays in the support
    ((0.5, fisher.P_TOL, fisher.P_TOL, 0.5 - 2e-12), (0.1, 2e-6, 2e-6, -0.1),
     (5000, 1, 1, 4998)),
    # occupied outcomes with p = 0: dp / 0 is inf, -inf, or NaN for dp = 0
    ((0.5, 0.0, 0.0, 0.5), (0.1, 1e-3, -1e-3, -0.1), (5000, 3, 2, 4995)),
    ((0.5, 0.0, 0.0, 0.5), (0.1, 0.0, 0.0, -0.1), (5000, 3, 0, 4997)),
    # -0.0 is clipped to 0.0, so dp / p keeps the sign of dp
    ((0.5, -0.0, -0.0, 0.5), (0.1, 1e-3, 1e-3, -0.1), (5000, 3, 0, 4997)),
])
def test_scoring_step_edge_cases(probs, dprobs, counts):
    counts = np.array(counts)
    got, got_warned = outcome(float_scoring_step, counts, probs, dprobs)
    want, want_warned = outcome(array_scoring_step, counts, probs, dprobs)
    assert got_warned == want_warned
    assert all(map(same_bits, got, want))


def test_scoring_step_divergent_and_lost_normalization():
    counts = np.array([5000, 1, 1, 4998])
    probs, dprobs = (0.5, 1e-13, 1e-13, 0.5), (0.1, 2e-6, 2e-6, -0.1)
    with pytest.warns(fisher.DivergentInformationWarning):
        score, F = float_scoring_step(counts, probs, dprobs)
    assert F == math.inf
    with pytest.warns(fisher.DivergentInformationWarning):
        assert (score, F) == array_scoring_step(counts, probs, dprobs)
    # a NaN population raises the normalization error of the array route
    probs = (math.nan, 0.5, 0.5, 0.0)
    with pytest.raises(RuntimeError, match="lost normalization: sum=nan"):
        float_scoring_step(counts, probs, dprobs)
    with pytest.raises(RuntimeError, match="lost normalization: sum=nan"):
        array_scoring_step(counts, probs, dprobs)


# ----------------------------------------------------------- adaptive runs

def test_adaptive_trace_reproducible():
    cfg = ProtocolConfig(J_true=0.9, gamma=1.0, D=0.0, J_guess=0.9,
                         shots=10_000, rounds=3, grid=(0.02, 2.5, 801), seed=11)
    a, b = quiet_run(cfg), quiet_run(cfg)
    assert a == b
    assert a.jsonl() == b.jsonl()


def test_adaptive_converges_with_good_guess():
    cfg = ProtocolConfig(J_true=0.9, gamma=1.0, D=0.0, J_guess=0.9,
                         shots=10_000, rounds=3, grid=(0.02, 2.5, 801), seed=3)
    tr = adaptive_run(cfg)
    assert tr.converged
    assert abs(tr.final_estimate - 0.9) < 0.02
    assert tr.rounds[0].B == 0.9  # round 1 measures at the guess itself


def test_pooled_variance_non_increasing():
    for seed in range(5):
        cfg = ProtocolConfig(J_true=0.9, gamma=1.0, D=0.0, J_guess=0.9,
                             shots=10_000, rounds=3, grid=(0.02, 2.5, 801),
                             seed=seed)
        tr = quiet_run(cfg)
        vs = [r.variance_est for r in tr.rounds]
        finite = [v for v in vs if math.isfinite(v)]
        assert finite == sorted(finite, reverse=True)


def test_zero_truth_never_converges():
    cfg = ProtocolConfig(J_true=0.0, gamma=1.0, D=0.1, J_guess=0.9,
                         shots=100, rounds=3, seed=1)
    with pytest.warns(NonConvergenceWarning):
        tr = adaptive_run(cfg)
    assert not tr.converged
    assert math.isinf(tr.final_variance)
    assert len(tr.rounds) == 3


def test_dm_term_rescues_poor_guess():
    # with a mirror-even outcome distribution (D=0) a wrong-side guess
    # keeps finding the twin likelihood maximum; D != 0 breaks the tie
    kw = dict(J_guess=-0.3, gamma=0.7, shots=10_000, rounds=3, grid=GRID)
    conv0 = conv1 = 0
    for seed in range(20):
        conv0 += quiet_run(ProtocolConfig(J_true=-0.7, D=0.0, seed=seed, **kw)).converged
        conv1 += quiet_run(ProtocolConfig(J_true=-0.7, D=0.1, seed=seed, **kw)).converged
    assert conv1 >= conv0 + 6


# ----------------------------------------------------------- frozen traces

# Whole adaptive runs, one per case of the retuning and convergence rules
# (converged runs at D = 0.1 and 0.3, check 09's one-sided grid, an edge
# round, uninformative rounds, a 3-sigma break, J_true = 0, a field
# retuned to zero).  D = 0 runs on a symmetric grid are left out: their
# sign is roundoff.
FROZEN = json.loads((Path(__file__).parent / "protocol_traces.json").read_text())


def frozen_config(case):
    return ProtocolConfig(**dict(case["config"],
                                 grid=tuple(case["config"]["grid"])))


@pytest.mark.parametrize("case", FROZEN, ids=[c["name"] for c in FROZEN])
def test_adaptive_run_matches_frozen_trace(case):
    # counts, edges and convergence exactly; floats to 1e-9, so that a
    # change of quadrature roundoff needs no new file, except for the two
    # runs whose first round sees counts (100, 0, 0, 0) (zero_truth and
    # uninformative_first_round): their exact maximizer is j = 0, and the
    # estimate, about 5e-13, is where the scoring stops amid the score's
    # quadrature roundoff, so any change of that roundoff or of the
    # scoring moves it by more than 1e-9 relative and those two entries
    # must be regenerated
    cfg = frozen_config(case)
    tr = quiet_run(cfg)
    assert tr.converged is case["converged"]
    assert len(tr.rounds) == len(case["rounds"])
    B = cfg.J_guess
    for got, want in zip(tr.rounds, case["rounds"]):
        assert got.counts == tuple(want["counts"])
        assert got.at_edge is want["at_edge"]
        # each field is the running estimate before it, bit for bit
        assert got.B == B
        for name in ("B", "estimate", "variance_est"):
            assert getattr(got, name) == pytest.approx(want[name], rel=1e-9)
        B = got.estimate


# The work of each frozen run from cold caches: chain_point calls (from
# any module) and Gauss-Kronrod rule calls, probability tables included.
# A change that adds or drops a pass fails here by name; the refreeze
# command at the end of this file prints these entries.
FROZEN_WORK = {
    "converged_d0.1": (11, 39),
    "converged_d0.3": (11, 42),
    "one_sided_grid_seed0": (14, 43),
    "one_sided_grid_seed1": (16, 45),
    "edge_round": (11, 39),
    "uninformative_last_round": (16, 45),
    "uninformative_first_round": (8, 37),
    "three_sigma_break": (11, 47),
    "zero_truth": (10, 39),
    "field_retuned_to_zero": (2, 29),
}


def counted_run(case):
    """The frozen case's trace from cold caches, and its work: the
    (chain_point, rule) counts of FROZEN_WORK."""
    work = {"chain_point": 0, "rule": 0}
    real_point, real_rule = chain_mod.chain_point, quadrature._panel_rule

    def counting_point(*args, **kwargs):
        work["chain_point"] += 1
        return real_point(*args, **kwargs)

    def counting_rule(*args, **kwargs):
        work["rule"] += 1
        return real_rule(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        for module in (chain_mod, fisher, protocol):
            patch.setattr(module, "chain_point", counting_point)
        patch.setattr(quadrature, "_panel_rule", counting_rule)
        protocol._probability_curve.cache_clear()
        protocol._nature_probabilities.cache_clear()
        trace = quiet_run(frozen_config(case))
    return trace, (work["chain_point"], work["rule"])


@pytest.mark.parametrize("case", FROZEN, ids=[c["name"] for c in FROZEN])
def test_frozen_trace_work(case):
    assert counted_run(case)[1] == FROZEN_WORK[case["name"]]


# ------------------------------------------------------------------ traces

def test_trace_jsonl_schema():
    cfg = ProtocolConfig(J_true=0.9, gamma=1.0, D=0.0, J_guess=0.9,
                         shots=1_000, rounds=2, grid=(0.02, 2.5, 801), seed=0)
    tr = quiet_run(cfg)
    lines = tr.jsonl().strip().split("\n")
    assert len(lines) == 2
    for k, line in enumerate(lines, start=1):
        rec = json.loads(line)
        assert rec["round"] == k
        assert set(rec) == {"round", "B", "counts", "estimate",
                            "variance_est", "at_edge"}
        assert sum(rec["counts"]) == 1_000
    s = tr.summary()
    assert set(s) == {"converged", "final_estimate", "final_variance", "rounds"}
    assert s["rounds"] == 2


# --------------------------------------------------------------------- CRB

def test_crb_report_matched_units():
    # single round at B = J_guess = 1: estimate units equal coupling units,
    # so the ensemble variance should sit right at 1/(M F(J_true))
    traces = [quiet_run(ProtocolConfig(J_true=0.5, gamma=1.0, D=0.0,
                                       J_guess=1.0, shots=100_000, rounds=1,
                                       grid=(0.02, 2.5, 801), seed=s))
              for s in range(40)]
    crb = 1.0 / (100_000 * fisher.magnetization_fi(
        ChainParams(0.5, 1.0, 0.0), "J"))
    emp = np.var([t.final_estimate for t in traces], ddof=1)
    med = np.median([t.final_variance for t in traces])
    assert 0.5 < emp / crb < 2.0
    assert med == pytest.approx(crb, rel=0.5)


# ---------------------------------------------------------------- constants

def test_protocol_constants():
    assert EDGE_CLAMP == 1e-6
    assert STABLE_SIGMA == 3.0
    assert FISHER_FLOOR == 1e-8


if __name__ == "__main__":
    # python tests/test_protocol.py tests/protocol_traces.json > new.json
    # reruns the frozen configurations from cold caches and prints their
    # FROZEN_WORK entries to stderr; refreeze only when the estimator, the
    # retuning or the convergence rule changes on purpose
    lines = []
    for case in json.loads(Path(sys.argv[1]).read_text()):
        tr, work = counted_run(case)
        print("    %s: %s," % (json.dumps(case["name"]), work), file=sys.stderr)
        rounds = [json.loads(line) for line in tr.jsonl().splitlines()]
        lines.append('{"name": %s, "config": %s, "converged": %s, "rounds": [\n'
                     % (json.dumps(case["name"]), json.dumps(case["config"]),
                        json.dumps(tr.converged))
                     + ",\n".join(" " + json.dumps(r) for r in rounds) + "]}")
    print("[\n" + ",\n".join(lines) + "\n]")
