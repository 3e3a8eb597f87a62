"""Classical and quantum Fisher information, dual-route checks."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmchain.chain import (PARAM_TAGS, ChainParams, chain_point, chain_points,
                           x_state)
from dmchain.fisher import (DivergentInformationWarning, block_qfi,
                            classical_fi, classical_fi_point, fisher_point,
                            magnetization_fi, qfi_xstate)

sys.path.insert(0, "tests")
from _oracles import (classical_fi_direct, drho_fd, qfi_eigen,
                      qfi_eigen_direct, rho_direct, sld, x_matrix)

# Eigendecomposition QFI on the Simpson state with Richardson derivatives
# (tests/_oracles.py); nodes 4e5 / 2e5, h = 1e-4.
ORACLE_FI = {
    ((0.5, 0.7, 0.1), "J"): (0.426316268013, 0.443614966504),
    ((1.5, 1.0, 0.0), "J"): (0.174806923481, 0.190454311456),
    ((0.9, 0.5, -0.2), "gamma"): (0.449890706006, 0.466717848361),
    ((-0.7, 0.2, 0.3), "D"): (1.17022546225, 1.17655138098),
}


@pytest.mark.parametrize("case,expected", sorted(ORACLE_FI.items()))
def test_information_matches_oracle(case, expected):
    point, wrt = case
    params = ChainParams(*point)
    F_exp, H_exp = expected
    assert magnetization_fi(params, wrt) == pytest.approx(F_exp, rel=1e-6)
    assert qfi_xstate(params, wrt) == pytest.approx(H_exp, rel=1e-6)


def test_two_qfi_routes_agree():
    # block form vs full 4x4 eigendecomposition, analytic derivatives both
    for (J, g, D), wrt in ORACLE_FI:
        params = ChainParams(J, g, D)
        pt = chain_point(params, (wrt,))
        direct = qfi_eigen(x_matrix(pt.state), x_matrix(pt.dstate[wrt]))
        assert qfi_xstate(params, wrt) == pytest.approx(direct, rel=1e-7)


def test_sld_reproduces_derivative():
    pt = chain_point(ChainParams(0.5, 0.7, 0.1), ("J",))
    rho = x_matrix(pt.state)
    drho = x_matrix(pt.dstate["J"])
    L = sld(rho, drho)
    assert np.allclose(0.5 * (L @ rho + rho @ L), drho, atol=1e-10)
    # QFI as Tr[rho L^2] closes the loop
    assert np.trace(rho @ L @ L) == pytest.approx(
        qfi_xstate(ChainParams(0.5, 0.7, 0.1), "J"), rel=1e-8)


def test_qfi_eigen_matches_textbook_loop():
    rho = rho_direct(0.9, 0.5, -0.2, nodes=100_001)
    drho = drho_fd(0.9, 0.5, -0.2, "gamma", nodes=50_001)
    assert qfi_eigen(rho, drho) == pytest.approx(qfi_eigen_direct(rho, drho), rel=1e-10)


def test_classical_fi_from_probability_vector():
    pt = chain_point(ChainParams(0.5, 0.7, 0.1), ("J",))
    p = pt.state.probabilities()
    dp = pt.dstate["J"].probabilities()
    assert magnetization_fi(ChainParams(0.5, 0.7, 0.1), "J") == pytest.approx(
        classical_fi_direct(p, dp), rel=1e-12)


# --------------------------------------------------------------- structure

def test_fisher_point_fields_consistent():
    fp = fisher_point(ChainParams(0.5, 0.7, 0.1), "J")
    assert fp.H == pytest.approx(fp.H1 + fp.H2, abs=1e-14)
    assert fp.S == pytest.approx(fp.F / fp.H, rel=1e-12)


def test_block_weights_sum_to_one():
    # the outer block holds the aligned pairs, weight (1 + gzz)/2
    pt = chain_point(ChainParams(0.9, 0.5, -0.2), ())
    outer = pt.state.a_plus + pt.state.a_minus
    assert outer == pytest.approx(0.5 * (1.0 + pt.corr.gzz), abs=1e-14)
    assert outer + 2.0 * pt.state.c == pytest.approx(1.0, abs=1e-12)


def test_block_derivative_weights_trade():
    pt = chain_point(ChainParams(0.9, 0.5, -0.2), ("J",))
    d = pt.dstate["J"]
    assert d.a_plus + d.a_minus + 2.0 * d.c == pytest.approx(0.0, abs=1e-14)


# ----------------------------------------------------------------- bounds

fisher_J = st.floats(-2.0, 2.0).filter(lambda j: abs(abs(j) - 1.0) > 0.05)


@settings(max_examples=20, deadline=None)
@given(fisher_J, st.floats(0.1, 1.0), st.floats(-0.4, 0.4),
       st.sampled_from(["J", "gamma", "D"]))
# near J = 0 the populations nearly saturate H; a_minus ~ J^2 and the
# inner weight c ~ J^2 fall below the support cut
@example(J=-1e-4, gamma=0.95, D=0.0, wrt="J")
@example(J=1e-6, gamma=1.0, D=0.0, wrt="J")
def test_classical_never_exceeds_quantum(J, gamma, D, wrt):
    F = magnetization_fi(ChainParams(J, gamma, D), wrt)
    H = qfi_xstate(ChainParams(J, gamma, D), wrt)
    assert F <= H + 1e-9
    assert H >= -1e-12


@settings(max_examples=20, deadline=None)
@given(fisher_J, st.floats(0.1, 1.0), st.floats(-0.4, 0.4))
# a small inner block of weight 3e-8, one of weight 1.3e-13 (outside the
# support), and a nearly pure outer block with 2 lambda_- = 3e-13
@example(J=0.001953125, gamma=0.25, D=0.0)
@example(J=1e-6, gamma=1.0, D=0.0)
@example(J=0.01, gamma=0.25, D=0.0)
def test_block_route_equals_eigen_route(J, gamma, D):
    pt = chain_point(ChainParams(J, gamma, D), ("J",))
    block = qfi_xstate(ChainParams(J, gamma, D), "J")
    eig = qfi_eigen(x_matrix(pt.state), x_matrix(pt.dstate["J"]))
    assert block == pytest.approx(eig, rel=1e-6, abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(fisher_J, st.floats(0.1, 1.0), st.floats(-0.4, 0.4))
# points where a float's ** 0.5 (libm pow) and an array's sqrt round the
# block's eigenvalue gap differently
@example(J=-0.5507256300989016, gamma=0.4194178828109545, D=0.30582361694137983)
@example(J=0.34756834658678226, gamma=0.5525295402763167, D=-0.38538008952892033)
@example(J=-0.7265491473172978, gamma=0.7005694971715654, D=-0.010202119262026688)
@example(J=0.7818841545652, gamma=0.24329493359249613, D=-0.11595116447685222)
def test_block_qfi_of_a_point_equals_its_family_bits(J, gamma, D):
    one = block_qfi(chain_point(ChainParams(J, gamma, D), PARAM_TAGS))
    family = block_qfi(chain_points([J], gamma, D, PARAM_TAGS))
    for got, want in zip(one, family):
        assert np.array_equal(got, want[..., 0])


# ------------------------------------------------------------ support

def test_decoupled_point_carries_no_classical_information():
    # p = (1,0,0,0) with dp/dJ = 0 identically: the dead outcomes are
    # excluded from the support rather than flagged as divergent
    F = magnetization_fi(ChainParams(0.0, 0.7, 0.0), "J")
    assert F == 0.0


def test_divergence_warning_when_support_shrinks():
    probs, dprobs = [1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0]
    with pytest.warns(DivergentInformationWarning):
        F = classical_fi(np.array(probs), np.array(dprobs))
    assert math.isinf(F)
    with pytest.warns(DivergentInformationWarning):
        assert classical_fi_point(probs, dprobs) == math.inf
    # arrays over points: only the point that loses its support diverges
    with pytest.warns(DivergentInformationWarning):
        F = classical_fi(np.array([probs, [0.25] * 4]).T,
                         np.array([dprobs, [0.5] * 4]).T)
    assert F.shape == (2,) and math.isinf(F[0]) and F[1] == 4.0
