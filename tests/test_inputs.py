"""The shared input checks at the public entries: every count and every
grid is refused the same way, and a numpy integer is taken as a count."""

import math

import numpy as np
import pytest

from dmchain.chain import ChainParams
from dmchain.features import detect_d_loss, detect_features
from dmchain.multiparam import matrix_crb, qfi_matrix
from dmchain.protocol import ProtocolConfig, mle_estimate, sample_outcomes
from dmchain.quadrature import QuadratureConfig
from dmchain.sweep import SweepSpec


def config(**fields):
    return ProtocolConfig(J_true=0.5, gamma=1.0, D=0.0, J_guess=1.0, **fields)


def exponential(gamma, D, points, quad):
    js = np.linspace(0.0, 1.0, points)
    return js, np.exp(js)


GRIDS = {
    "ProtocolConfig.grid": lambda grid: config(grid=grid),
    "SweepSpec.range": lambda grid: SweepSpec("J", grid,
                                              {"gamma": 0.5, "D": 0.0}),
    "mle_estimate.grid": lambda grid: mle_estimate(
        [5000, 3000, 1000, 1000], 1.0, 0.7, 0.1, grid),
}

# entry -> (call with one count, the least count it takes)
COUNTS = {
    "ProtocolConfig.shots": (lambda n: config(shots=n), 1),
    "ProtocolConfig.rounds": (lambda n: config(rounds=n), 1),
    "ProtocolConfig.seed": (lambda n: config(seed=n), 0),
    "sample_outcomes.shots": (
        lambda n: sample_outcomes(np.full(4, 0.25), n, 0), 1),
    "mle_estimate.counts": (
        lambda n: mle_estimate([n, 3000, 1000, 1000], 1.0, 0.7, 0.1,
                               (-2.5, 2.5, 81)), 0),
    "matrix_crb.shots": (
        lambda n: matrix_crb(qfi_matrix(ChainParams(0.5, 0.7, 0.3)), n), 1),
    "detect_features.points": (
        lambda n: detect_features(0.2, (0.1,), points=n,
                                  sampler=exponential), 2),
    "detect_d_loss.d_points": (lambda n: detect_d_loss(0.2, d_points=n,
                                                       j_points=5), 3),
    "detect_d_loss.j_points": (lambda n: detect_d_loss(0.2, d_points=3,
                                                       j_points=n), 2),
    "QuadratureConfig.max_subdivisions": (
        lambda n: QuadratureConfig(max_subdivisions=n), 8),
}
COUNTS.update({name + " points": ((lambda n, call=call: call((-1.0, 1.0, n))),
                                  2) for name, call in GRIDS.items()})

BAD_COUNTS = [True, 2.5, 801.0, -1, math.nan, math.inf, "3"]
BAD_GRIDS = [(2.5, -2.5, 801), (1.0, 1.0, 801), (math.nan, 2.5, 801),
             (-2.5, math.inf, 801)]


@pytest.mark.parametrize("value", BAD_COUNTS, ids=repr)
@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_entry_refuses_a_count_that_is_not_an_integer_of_its_least(entry,
                                                                   value):
    call, _ = COUNTS[entry]
    with pytest.raises(ValueError, match="integer"):
        call(value)


@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_entry_takes_a_numpy_integer(entry):
    call, least = COUNTS[entry]
    call(np.int64(max(least, 3)))


@pytest.mark.parametrize("grid", BAD_GRIDS, ids=repr)
@pytest.mark.parametrize("entry", sorted(GRIDS))
def test_entry_refuses_a_grid_that_is_not_finite_and_ascending(entry, grid):
    with pytest.raises(ValueError, match="finite with lo < hi"):
        GRIDS[entry](grid)
