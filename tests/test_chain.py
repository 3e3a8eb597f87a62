"""Ground-state correlators and the reduced two-spin state."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmchain.chain import (ChainParams, Correlators, CriticalPoint,
                           PositivityViolation, TwoSpinXState, chain_point,
                           delta, x_matrix, x_state)

# Composite Simpson at 10^6 nodes on the frozen integral convention
# (tests/_oracles.py); digits beyond ~1e-12 are quadrature noise.
ORACLE_CORR = {
    (0.5, 0.7, 0.1): (0.97055083320487, -0.171618449107133, 0.156735599425103, 0.968867640327881),
    (-0.7, 0.2, 0.3): (0.969973242180442, 0.161515384022762, -0.131550783903586, 0.962095565926721),
    (1.5, 1.0, 0.0): (0.355933898669063, -0.877328215244754, 0.063491160254144, 0.182391526531345),
    (0.9, 0.5, -0.2): (0.721225212004752, -0.538294010450556, 0.189850715397202, 0.622361309409367),
    (2.0, 0.2, 0.0): (0.322123181823219, -0.779934652374247, -0.296206777522388, -0.127258585789905),
}

# 5-point Richardson (h = 1e-4) on the same oracle at (0.5, 0.7, 0.1)
ORACLE_DCORR = {
    "J": (-0.124182732461, -0.361678320634, 0.267261287533, -0.138496472864),
    "gamma": (-0.0786174510255, -0.234347350178, 0.195542248513, -0.0823152353667),
    "D": (0.0474297861981, 0.14058412009, -0.11199604658, 0.0508109128746),
}


def corr_tuple(c: Correlators):
    return (c.mz, c.gxx, c.gyy, c.gzz)


# ---------------------------------------------------------------- parameters

def test_params_validation():
    with pytest.raises(ValueError):
        ChainParams(0.5, 1.2, 0.0)
    with pytest.raises(ValueError):
        ChainParams(math.nan, 0.5, 0.0)
    with pytest.raises(ValueError):
        ChainParams(0.5, 0.5, math.inf)
    p = ChainParams(0.5, 0.7, 0.1).replace(D=0.2)
    assert (p.J, p.gamma, p.D) == (0.5, 0.7, 0.2)


def test_params_frozen():
    with pytest.raises(Exception):
        ChainParams(0.5, 0.7, 0.1).J = 1.0


# ------------------------------------------------------- decoupled limit J=0

def test_decoupled_chain_fully_polarized():
    c = chain_point(ChainParams(0.0, 0.7, 0.3)).corr
    assert abs(c.mz - 1.0) < 1e-12
    assert abs(c.gxx) < 1e-12
    assert abs(c.gyy) < 1e-12
    assert abs(c.gzz - 1.0) < 1e-12


def test_decoupled_chain_state_is_up_up():
    p = x_state(ChainParams(0.0, 1.0, 0.0)).probabilities()
    assert np.allclose(p, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


# ------------------------------------------------------------ kernel and gap

def test_delta_closes_at_critical_coupling():
    assert delta(ChainParams(1.0, 0.5, 0.0), 0.0) < 1e-15
    assert delta(ChainParams(-1.0, 0.5, 0.0), np.pi) < 1e-15


def test_delta_positive_off_critical():
    phi = np.linspace(0.0, np.pi, 2001)
    d = delta(ChainParams(0.9, 0.5, 0.1), phi)
    assert np.all(d > 0.0)


def test_derivative_guard_at_criticality():
    with pytest.raises(CriticalPoint):
        chain_point(ChainParams(1.0, 0.7, 0.0), ("J",))
    with pytest.raises(CriticalPoint):
        chain_point(ChainParams(-1.0, 0.4, 0.2), ("J",))
    # gamma = 0 with |J| sqrt(1 + 4 D^2) >= 1: gapless line
    with pytest.raises(CriticalPoint):
        chain_point(ChainParams(1.2, 0.0, 0.0), ("J",))
    # but correlators themselves stay integrable there
    c = chain_point(ChainParams(1.0, 0.7, 0.0)).corr
    assert math.isfinite(c.mz)


def test_gamma_zero_weak_coupling_is_fine():
    # gapped even at gamma = 0 while |J| sqrt(1 + 4 D^2) < 1
    d = chain_point(ChainParams(0.5, 0.0, 0.1), ("J",)).dcorr["J"]
    assert math.isfinite(d.mz)


# ----------------------------------------------------- oracle cross-checks

@pytest.mark.parametrize("point,expected", sorted(ORACLE_CORR.items()))
def test_correlators_match_simpson_oracle(point, expected):
    c = chain_point(ChainParams(*point)).corr
    assert np.allclose(corr_tuple(c), expected, rtol=0.0, atol=2e-11)


@pytest.mark.parametrize("wrt", ["J", "gamma", "D"])
def test_derivatives_match_finite_differences(wrt):
    d = chain_point(ChainParams(0.5, 0.7, 0.1), (wrt,)).dcorr[wrt]
    assert np.allclose(corr_tuple(d), ORACLE_DCORR[wrt], rtol=1e-6, atol=1e-9)


# ------------------------------------------------------------------- X state

def test_x_matrix_layout():
    m = x_matrix(1.0, 2.0, 3.0, 4.0, 5.0)
    assert m[0, 0] == 1.0 and m[3, 3] == 2.0
    assert m[1, 1] == 3.0 and m[2, 2] == 3.0
    assert m[1, 2] == 4.0 and m[2, 1] == 4.0
    assert m[0, 3] == 5.0 and m[3, 0] == 5.0
    assert m[0, 1] == 0.0 and m[1, 3] == 0.0


def test_state_against_direct_assembly():
    from _oracles import rho_direct

    rho = x_state(ChainParams(0.5, 0.7, 0.1)).matrix()
    assert np.allclose(rho, rho_direct(0.5, 0.7, 0.1, nodes=200_001), atol=1e-10)


def test_state_trace_and_hermiticity():
    rho = x_state(ChainParams(1.5, 1.0, 0.0)).matrix()
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.allclose(rho, rho.T)
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_positivity_violation_message():
    bad = TwoSpinXState(0.5, 0.5, -0.1, 0.0, 0.0)
    with pytest.raises(PositivityViolation):
        import dmchain.chain as chain_mod

        chain_mod._check_positivity(bad)


def test_chain_point_bundles_everything():
    pt = chain_point(ChainParams(0.5, 0.7, 0.1), ("J", "D"))
    assert set(pt.dcorr) == {"J", "D"}
    assert set(pt.dstate) == {"J", "D"}
    assert pt.corr.mz == pytest.approx(ORACLE_CORR[(0.5, 0.7, 0.1)][0], abs=1e-11)
    assert pt.dcorr["J"].mz == pytest.approx(ORACLE_DCORR["J"][0], rel=1e-6)
    # derivative of the probability vector matches the state derivative
    dp = pt.dstate["J"].probabilities()
    assert dp[1] == dp[2]


def test_chain_point_rejects_unknown_tag():
    with pytest.raises(ValueError):
        chain_point(ChainParams(0.5, 0.7, 0.1), ("kappa",))


# --------------------------------------------------------------- symmetries

off_critical_J = st.floats(-2.0, 2.0).filter(lambda j: abs(abs(j) - 1.0) > 0.05)
gammas = st.floats(0.1, 1.0)
dms = st.floats(-0.5, 0.5)


@settings(max_examples=25, deadline=None)
@given(off_critical_J, gammas, dms)
def test_mirror_symmetry(J, gamma, D):
    # flipping both J and D reflects the kernel about phi = pi/2
    a = chain_point(ChainParams(J, gamma, D)).corr
    b = chain_point(ChainParams(-J, gamma, -D)).corr
    assert b.mz == pytest.approx(a.mz, abs=1e-9)
    assert b.gxx == pytest.approx(-a.gxx, abs=1e-9)
    assert b.gyy == pytest.approx(-a.gyy, abs=1e-9)
    assert b.gzz == pytest.approx(a.gzz, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(off_critical_J, gammas, dms)
def test_anisotropy_sign_swaps_planar_correlators(J, gamma, D):
    a = chain_point(ChainParams(J, gamma, D)).corr
    b = chain_point(ChainParams(J, -gamma, D)).corr
    assert b.mz == pytest.approx(a.mz, abs=1e-9)
    assert b.gxx == pytest.approx(a.gyy, abs=1e-9)
    assert b.gyy == pytest.approx(a.gxx, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(off_critical_J, gammas, dms)
def test_state_is_physical(J, gamma, D):
    state = x_state(ChainParams(J, gamma, D))
    p = state.probabilities()
    assert abs(p.sum() - 1.0) < 1e-9
    assert np.all(p >= 0.0)
    ev = np.linalg.eigvalsh(state.matrix())
    assert ev.min() > -1e-9
