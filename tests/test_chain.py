"""Ground-state correlators and the reduced two-spin state."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmchain.chain as chain_mod
from dmchain.chain import (PARAM_TAGS, ChainParams, ChainPoints, Correlators,
                           CriticalPoint, PositivityViolation, TwoSpinXState,
                           chain_point, x_state)
from dmchain.fisher import FisherPoint, fisher_point

from _oracles import assembled, delta, x_matrix

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
    # finite couplings whose integrand products would overflow
    for J, D in ((0.5, 1e155), (0.5, 1e200), (1e101, 0.0), (0.0, 1e101)):
        with pytest.raises(ValueError, match="must satisfy"):
            ChainParams(J, 0.5, D)
    p = dataclasses.replace(ChainParams(0.5, 0.7, 0.1), D=0.2)
    assert (p.J, p.gamma, p.D) == (0.5, 0.7, 0.2)
    with pytest.raises(ValueError):
        dataclasses.replace(p, gamma=1.5)


def test_params_frozen():
    with pytest.raises(Exception):
        ChainParams(0.5, 0.7, 0.1).J = 1.0


def test_large_couplings_keep_their_limit_or_are_refused():
    # |J D| >> 1 polarizes the chain; where u*u overflowed (D ~ 1e155 at
    # J = 0.5) the pass returned mz = 0.0856, then 0.0, with no error
    assert chain_point(ChainParams(0.5, 0.5, 1e99)).corr.mz \
        == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="must satisfy"):
        chain_point(ChainParams(0.5, 0.5, 1e155))


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
    m = x_matrix(TwoSpinXState(1.0, 2.0, 3.0, 4.0, 5.0))
    assert m[0, 0] == 1.0 and m[3, 3] == 2.0
    assert m[1, 1] == 3.0 and m[2, 2] == 3.0
    assert m[1, 2] == 4.0 and m[2, 1] == 4.0
    assert m[0, 3] == 5.0 and m[3, 0] == 5.0
    assert m[0, 1] == 0.0 and m[1, 3] == 0.0


def test_state_against_direct_assembly():
    from _oracles import rho_direct

    rho = x_matrix(x_state(ChainParams(0.5, 0.7, 0.1)))
    assert np.allclose(rho, rho_direct(0.5, 0.7, 0.1, nodes=200_001), atol=1e-10)


def test_state_trace_and_hermiticity():
    rho = x_matrix(x_state(ChainParams(1.5, 1.0, 0.0)))
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
    ev = np.linalg.eigvalsh(x_matrix(state))
    assert ev.min() > -1e-9


# ------------------------------------------------------------------ records

def bits(values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


def records(points):
    """The records of a ChainPoints, or of the oracle's tuple, in order."""
    corr, state, dcorr, dstate = points
    assert list(dcorr) == list(dstate)
    return [corr, state, *dcorr.values(), *dstate.values()]


def assert_same_records(points, expected):
    assert list(points.dcorr) == list(expected[2])
    for record, values in zip(records(points), records(expected)):
        assert bits(tuple(record)) == bits(values)


def integral_column(rows):
    return st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=rows,
                    max_size=rows)


TAG_SETS = [(), ("gamma",), PARAM_TAGS]


@pytest.mark.parametrize("tags", TAG_SETS, ids=lambda t: ",".join(t) or "-")
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_assembly_matches_the_step_oracle(tags, data):
    # one point (floats) and a family (rows over the points) get the bits
    # of the four-step oracle, and each point of the family the bits it
    # gets alone
    rows = 3 + 3 * len(tags)
    one = data.draw(integral_column(rows))
    assert_same_records(chain_mod._evaluated(tags, one), assembled(tags, one))
    n = data.draw(st.integers(1, 6))
    family = np.array(data.draw(st.lists(integral_column(rows), min_size=n,
                                         max_size=n))).T
    points = chain_mod._evaluated(tags, family)
    assert_same_records(points, assembled(tags, family))
    for k in range(n):
        alone = chain_mod._evaluated(tags, family[:, k].tolist())
        for record, values in zip(records(points), records(alone)):
            assert bits([v[k] for v in record]) == bits(tuple(values))


def test_records_are_immutable_named_tuples():
    point = chain_point(ChainParams(0.5, 0.7, 0.1), ("J",))
    fp = fisher_point(ChainParams(0.5, 0.7, 0.1), "J")
    assert Correlators._fields == ("mz", "gxx", "gyy", "gzz")
    assert TwoSpinXState._fields == ("a_plus", "a_minus", "c", "b_plus",
                                     "b_minus")
    assert ChainPoints._fields == ("corr", "state", "dcorr", "dstate")
    assert FisherPoint._fields == ("F", "H", "H1", "H2", "S")
    state = point.state
    assert tuple(state) == (state.a_plus, state.a_minus, state.c,
                            state.b_plus, state.b_minus)
    assert state.populations() == (state.a_plus, state.c, state.c,
                                    state.a_minus)
    for record, name in ((point, "state"), (point.corr, "mz"),
                         (state, "c"), (point.dstate["J"], "c"), (fp, "F")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
    moved = state._replace(c=0.5)
    assert moved.c == 0.5 and state.c != 0.5
    assert moved._replace(c=state.c) == state
    assert type(moved) is TwoSpinXState
    assert point._replace(dcorr={}).dcorr == {} and "J" in point.dcorr


def test_records_keep_their_repr():
    assert repr(Correlators(0.5, -0.25, 0.125, 1.0)) == \
        "Correlators(mz=0.5, gxx=-0.25, gyy=0.125, gzz=1.0)"
    assert repr(FisherPoint(1.0, 2.0, 0.5, 1.5, 0.5)) == \
        "FisherPoint(F=1.0, H=2.0, H1=0.5, H2=1.5, S=0.5)"
    with pytest.raises(PositivityViolation) as info:
        chain_mod._check_positivity(TwoSpinXState(0.5, 0.75, -0.25, 0.125,
                                                  -0.0))
    assert str(info.value) == (
        "negative diagonal entry; inner coherence exceeds its diagonal bound "
        "(beyond 1e-09; likely quadrature inaccuracy): TwoSpinXState("
        "a_plus=0.5, a_minus=0.75, c=-0.25, b_plus=0.125, b_minus=-0.0)")
