"""Adaptive two-spin magnetization protocol: sampling, MLE, retuning."""

import json
import math
import warnings

import numpy as np
import pytest

from dmchain.chain import ChainParams, x_state
from dmchain.protocol import (EDGE_CLAMP, FISHER_FLOOR, STABLE_SIGMA,
                              CrbReport, DegenerateLikelihoodWarning,
                              MleResult, NonConvergenceWarning,
                              ProtocolConfig, ProtocolTrace, RoundRecord,
                              _probability_curve, adaptive_run, crb_report,
                              mle_estimate, outcome_probabilities,
                              sample_outcomes)
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


def test_round_record_validation():
    with pytest.raises(ValueError):
        RoundRecord(B=1.0, counts=(-1, 0, 0, 0), estimate=0.0, variance_est=1.0)
    with pytest.raises(ValueError):
        RoundRecord(B=1.0, counts=(1, 0, 0, 0), estimate=0.0, variance_est=-1.0)


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


def test_sign_switch_field_pattern():
    # round 1 at +J_guess, then the negative side until 3-sigma stable,
    # then back to the steep positive side
    cfg = ProtocolConfig(J_true=0.9, gamma=1.0, D=0.1, J_guess=0.9,
                         shots=10_000, rounds=3, grid=GRID, seed=0,
                         sign_switch=True)
    tr = adaptive_run(cfg)
    assert tr.rounds[0].B == 0.9
    assert tr.rounds[1].B < 0.0
    assert tr.rounds[2].B > 0.0
    assert tr.converged
    assert abs(tr.final_estimate - 0.9) < 0.02


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
    cfg = ProtocolConfig(J_true=0.5, gamma=1.0, D=0.0, J_guess=1.0,
                         shots=100_000, rounds=1, grid=(0.02, 2.5, 801), seed=0)
    traces = [quiet_run(ProtocolConfig(J_true=0.5, gamma=1.0, D=0.0,
                                       J_guess=1.0, shots=100_000, rounds=1,
                                       grid=(0.02, 2.5, 801), seed=s))
              for s in range(40)]
    rep = crb_report(traces, cfg)
    assert not rep.unattainable
    ratio = rep.ratios()[0]
    assert 0.5 < ratio < 2.0
    assert rep.per_round_median_varest[0] == pytest.approx(
        rep.crb_reference, rel=0.5)


def test_crb_report_unattainable_target():
    cfg = ProtocolConfig(J_true=0.0, gamma=1.0, D=0.1, J_guess=0.9,
                         shots=100, rounds=2, seed=0)
    traces = [quiet_run(ProtocolConfig(J_true=0.0, gamma=1.0, D=0.1,
                                       J_guess=0.9, shots=100, rounds=2,
                                       seed=s)) for s in range(3)]
    rep = crb_report(traces, cfg)
    assert rep.unattainable
    assert all(math.isnan(r) for r in rep.ratios())
    with pytest.raises(ValueError):
        crb_report([], cfg)


# ---------------------------------------------------------------- constants

def test_protocol_constants():
    assert EDGE_CLAMP == 1e-6
    assert STABLE_SIGMA == 3.0
    assert FISHER_FLOOR == 1e-8
