"""A ledger of the numbers the library is known to get wrong.

Each test asserts the right behaviour at one measured point, or a typed
error, and is a strict xfail naming the ROADMAP direction that would mend
it.  A change that mends a defect turns its test into a strict XPASS,
which fails until the mark is removed, so every fix is recorded by a test
that starts to pass.  References come from closed forms or properties,
never from the library at the same point.
"""

import math

import pytest

from dmchain.chain import ChainParams, chain_point
from dmchain.errors import NUMERICAL_ERRORS
from dmchain.fisher import fisher_point


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


@known(8)
def test_saturation_at_large_coupling_is_a_number():
    # F = H = 6.40e-13 at J = 1e3, below the absolute floor on H, so S
    # reads NaN; F <= H bounds S by 1
    point = information_or_none(1e3, 0.7, 0.0)
    assert point is None or 0.0 <= point.S <= 1.0 + 1e-9
