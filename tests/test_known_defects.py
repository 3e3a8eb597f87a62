"""A ledger of the numbers the library is known to get wrong.

Each test asserts the right behaviour at one measured point, or a typed
error, and is a strict xfail naming the ROADMAP direction that would mend
it.  A change that mends a defect turns its test into a strict XPASS,
which fails until the mark is removed, so every fix is recorded by a test
that starts to pass.  References come from closed forms or properties,
never from the library at the same point.
"""

import math
import warnings

import pytest

from dmchain.chain import ChainParams, chain_point
from dmchain.errors import NUMERICAL_ERRORS, CriticalPoint
from dmchain.fisher import fisher_point
from dmchain.protocol import ProtocolConfig, ProtocolTrace, adaptive_run


def known(direction):
    # only the wrong number may fail the test, not some other error
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason="ROADMAP direction %d" % direction)


def information_or_none(J, gamma, D):
    """fisher_point for the coupling, or None where a typed error says
    the point cannot be resolved."""
    try:
        return fisher_point(ChainParams(J, gamma, D), "J")
    except NUMERICAL_ERRORS:
        return None


@known(1)
def test_near_pure_state_keeps_its_saturation():
    # S = F/H is 0.99999 at J = 1e-5 and tends to 1 as J -> 0; at
    # J = 3e-6 the classical cut drops every outcome and S reads 1.7e-12
    point = information_or_none(3e-6, 1.0, 0.0)
    assert point is None or point.S > 0.99


@known(1)
def test_near_pure_state_keeps_its_inner_block():
    # the inner block carries about 2/3 of H near J = 0; at J = 1e-6 the
    # support cut drops it and H2 reads exactly 0
    point = information_or_none(1e-6, 1.0, 0.0)
    assert point is None or point.H2 > 0.0


@known(3)
@pytest.mark.parametrize("J", [1.0 + 1e-6, 1.5])
def test_xx_magnetization_matches_its_closed_form(J):
    # at gamma = 0, D = 0 and J > 1, mz = 1 - 2 acos(1/J) / pi exactly;
    # the step of the integrand at the sign change of u sits inside one
    # panel, off by 4.7e-8 at J = 1 + 1e-6 and 6.9e-10 at J = 1.5
    try:
        mz = chain_point(ChainParams(J, 0.0, 0.0)).corr.mz
    except NUMERICAL_ERRORS:
        return
    assert abs(mz - (1.0 - 2.0 * math.acos(1.0 / J) / math.pi)) <= 1e-10


@known(3)
def test_j_derivative_resolves_the_narrow_peak_at_the_root_of_u():
    # at J = -1.001, gamma = 1e-3, D = -2 the J-derivative integrand of mz,
    # -J gamma^2 sin^2 / (pi Delta^3), peaks about 6e-8 wide at the root
    # phi = pi - 2.4974e-4 of u; the reference is mpmath.quad at 40 digits
    # with breakpoints at that root and at 1e-2, ..., 1e-11 either side of
    # it.  The library reads 0.158827314061116, off by 3.1e-10 against a
    # tolerance of 1e-10.
    try:
        dmz = chain_point(ChainParams(-1.001, 0.001, -2.0),
                          ("J",)).dcorr["J"].mz
    except NUMERICAL_ERRORS:
        return
    assert abs(dmz - 0.15882731436990929) <= 1e-10


@known(6)
def test_final_variance_covers_the_truth():
    # the frozen uninformative_first_round run: all 100 first-round shots
    # land on one outcome, so round 2 measures at a field of 5e-13, and
    # the run ends 0.02 from the truth reporting a variance of 1.39e-25,
    # 5e10 of its standard deviations; a finite variance must cover the
    # truth within 5 of them
    config = ProtocolConfig(J_true=0.02, gamma=1.0, D=0.1, J_guess=0.9,
                            shots=100, rounds=3, grid=(-2.5, 2.5, 801),
                            seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trace = adaptive_run(config)
    if math.isfinite(trace.final_variance):
        assert (abs(trace.final_estimate - config.J_true)
                <= 5.0 * math.sqrt(trace.final_variance))


@known(6)
def test_converged_runs_without_dm_keep_the_sign_of_the_guess():
    # check 10's D = 0 arm: the outcome probabilities are even in the
    # coupling, so each round's maximizer picks between two mirror
    # maxima by roundoff; of 200 seeds 10 converge, 9 of them at +0.7
    # (seeds 5, 9, 18, 24, 28, 60, 82, 124 and 153) against a guess of -0.3
    base = dict(J_true=-0.7, gamma=0.7, D=0.0, J_guess=-0.3, shots=10_000,
                rounds=3, grid=(-2.5, 2.5, 801))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traces = [adaptive_run(ProtocolConfig(seed=seed, **base))
                  for seed in range(200)]
    wrong = [seed for seed, trace in enumerate(traces)
             if trace.converged
             and trace.final_estimate * base["J_guess"] <= 0.0]
    assert wrong == []


@pytest.mark.xfail(strict=True, raises=CriticalPoint,
                   reason="ROADMAP direction 12")
def test_gapless_round_maximizer_does_not_end_the_run():
    # at gamma = 0 a round's maximizer at J = -1.5 lies in the gapless
    # band |j| sqrt(1 + 4 D^2) >= 1, where magnetization_fi refuses F;
    # such a round could count as uninformative instead (seeds 0-4 raise)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trace = adaptive_run(ProtocolConfig(0.5, 0.0, 0.05, 0.7, 50, 3,
                                            (-1.5, 1.5, 61), seed=0))
    assert isinstance(trace, ProtocolTrace)


@known(8)
def test_saturation_at_large_coupling_is_a_number():
    # F = H = 6.40e-13 at J = 1e3, below the absolute floor on H, so S
    # reads NaN; F <= H bounds S by 1
    point = information_or_none(1e3, 0.7, 0.0)
    assert point is None or 0.0 <= point.S <= 1.0 + 1e-9
