"""QFI matrix, Uhlmann compatibility and sloppiness diagnostics."""

import sys

import numpy as np
import pytest

from dmchain.chain import PARAM_TAGS, ChainParams, CriticalPoint, chain_point
from dmchain.fisher import qfi_xstate
from dmchain.multiparam import (_PSD_TOL, CONDITION_FLOOR, QfiMatrix,
                                SingularInformation, UhlmannMatrix, matrix_crb,
                                qfi_matrix, uhlmann_matrix)
from dmchain.sweep import SweepSpec, sweep

sys.path.insert(0, "tests")
from _oracles import drho_fd, rho_direct, sld, x_matrix

REF = ChainParams(0.5, 0.7, 0.1)


def qfim_fd_oracle(J, gamma, D, nodes=100_001):
    """3x3 QFI matrix from the eigenbasis formula with FD derivatives."""
    rho = rho_direct(J, gamma, D, nodes=2 * nodes - 1)
    lam, vec = np.linalg.eigh(rho)
    ders = [vec.T @ drho_fd(J, gamma, D, w, nodes=nodes) @ vec
            for w in ("J", "gamma", "D")]
    h = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            for i in range(4):
                for j in range(4):
                    den = lam[i] + lam[j]
                    if den > 1e-12:
                        h[a, b] += 2.0 * ders[a][i, j] * ders[b][i, j] / den
    return h


def test_qfim_against_fd_oracle():
    got = qfi_matrix(REF).matrix
    want = qfim_fd_oracle(0.5, 0.7, 0.1)
    assert np.allclose(got, want, rtol=1e-6, atol=1e-9)


def sld_route(pt):
    """QFI and Uhlmann matrices from oracle SLDs of one chain_point."""
    rho = x_matrix(pt.state)
    ls = [sld(rho, x_matrix(pt.dstate[t])) for t in PARAM_TAGS]
    h = np.array([[0.5 * np.trace(rho @ (a @ b + b @ a)) for b in ls] for a in ls])
    u = np.array([[0.5 * np.trace(rho @ (a @ b - b @ a)) for b in ls] for a in ls])
    return h, u


# fig4: D sweep at J = 0.999, gamma = 0.2; fig6: J sweep at gamma = 1
FIG4_LINE = [ChainParams(0.999, 0.2, float(d)) for d in np.linspace(-0.4, 0.4, 41)]
FIG6_LINE = [ChainParams(float(j), 1.0, d) for d in (0.01, 0.3)
             for j in np.linspace(-2.0, 2.0, 40)]


def test_closed_form_matches_sld_route():
    # identical integrals: the block algebra against SLDs from a 4x4
    # eigendecomposition, at 121 points on the fig4 and fig6 lines
    points = FIG4_LINE + FIG6_LINE
    assert len(points) >= 100
    worst = 0.0
    for params in points:
        want, _ = sld_route(chain_point(params, PARAM_TAGS))
        got = qfi_matrix(params).matrix
        worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
    assert worst <= 1e-12


def test_diagonal_matches_scalar_qfi():
    m = qfi_matrix(REF)
    for i, wrt in enumerate(("J", "gamma", "D")):
        assert m.matrix[i, i] == pytest.approx(qfi_xstate(REF, wrt), rel=1e-10)


def test_qfim_symmetric_psd():
    m = qfi_matrix(ChainParams(0.9, 0.5, -0.2)).matrix
    assert np.array_equal(m, m.T)
    assert np.linalg.eigvalsh(m).min() >= -1e-12


def test_qfi_matrix_validation():
    with pytest.raises(ValueError):
        QfiMatrix(np.eye(2))
    with pytest.raises(ValueError):
        QfiMatrix(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError):
        QfiMatrix(-np.eye(3))


def test_matrix_types_compare_by_identity_and_stay_consistent():
    a, b = QfiMatrix(np.eye(3)), QfiMatrix(np.eye(3))
    u = UhlmannMatrix(np.zeros((3, 3)))
    assert (a == a) is True and (a == b) is False and (u == u) is True
    assert len({a, b, u}) == 3
    with pytest.raises(ValueError):
        a.matrix[0, 0] = 5.0
    with pytest.raises(ValueError):
        a.eigenvalues[0] = 5.0
    assert a.det == 1.0 and np.array_equal(a.matrix, np.eye(3))


# ----------------------------------------------------------------- Uhlmann

def test_uhlmann_vanishes_for_real_family():
    # real symmetric state and derivatives: all SLDs are real, so every
    # commutator expectation is pure roundoff
    scale = qfi_matrix(REF).matrix.max()
    u = np.abs(uhlmann_matrix(REF).matrix)
    assert u.max() <= 1e-10 * scale
    assert np.all(np.diag(u) == 0.0)


def test_uhlmann_from_oracle_slds_vanishes():
    # an independent check of compatibility: 0.5 Tr rho [L_mu, L_nu] from
    # oracle SLDs, on samples of the fig4 and fig6 lines
    for params in FIG4_LINE[::5] + FIG6_LINE[::8]:
        h, u = sld_route(chain_point(params, PARAM_TAGS))
        assert np.abs(u).max() <= 1e-10 * np.abs(h).max()


def test_uhlmann_guards_divergences_like_qfi_matrix():
    assert np.all(uhlmann_matrix(REF).matrix == 0.0)
    for params in (ChainParams(1.0, 0.5, 0.1), ChainParams(1.5, 0.0, 0.0)):
        with pytest.raises(CriticalPoint):
            qfi_matrix(params)
        with pytest.raises(CriticalPoint):
            uhlmann_matrix(params)


def test_uhlmann_antisymmetric_storage():
    u = UhlmannMatrix(np.array([[0.0, 1.0, 0.0],
                                [-1.0, 0.0, 2.0],
                                [0.0, -2.0, 0.0]]))
    assert np.allclose(u.matrix, -u.matrix.T)
    assert np.abs(u.matrix)[0, 1] == 1.0


def test_sld_commutator_route():
    pt = chain_point(REF, ("J", "gamma"))
    rho = x_matrix(pt.state)
    lj = sld(rho, x_matrix(pt.dstate["J"]))
    lg = sld(rho, x_matrix(pt.dstate["gamma"]))
    val = 0.5 * np.trace(rho @ (lj @ lg - lg @ lj)).real
    assert uhlmann_matrix(REF).matrix[0, 1] == pytest.approx(val, abs=1e-12)


# -------------------------------------------------------------- sloppiness

def test_sloppiness_report_fields():
    rep = qfi_matrix(REF)
    m = rep.matrix
    assert rep.det == pytest.approx(np.linalg.det(m), rel=1e-8)
    assert rep.eigenvalues[0] >= rep.eigenvalues[1] >= rep.eigenvalues[2]
    assert rep.condition_ratio == pytest.approx(
        rep.eigenvalues[-1] / rep.eigenvalues[0], rel=1e-12)


def test_spectrum_matches_eigvalsh():
    # a PSD matrix away from any clipping: the fields are plain functions
    # of its ascending eigenvalues
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3))
    m = QfiMatrix(a @ a.T)
    ev = np.linalg.eigvalsh(m.matrix)
    assert ev[0] > 0.0
    assert np.array_equal(m.eigenvalues, ev[::-1])
    assert m.det == np.prod(ev)
    assert m.condition_ratio == ev[0] / ev[-1]


def test_roundoff_negative_direction_is_clipped():
    m = QfiMatrix(np.diag([1.0, 0.5, -0.5 * _PSD_TOL]))
    assert np.array_equal(m.eigenvalues, [1.0, 0.5, 0.0])
    assert m.det == 0.0
    assert m.condition_ratio == 0.0
    with pytest.raises(SingularInformation):
        matrix_crb(m)


def test_dm_sign_breaks_near_critical_degeneracy():
    # at J just below the critical coupling the D < 0 chain carries a
    # far less singular information matrix than D > 0
    minus = qfi_matrix(ChainParams(0.999, 0.2, -0.3))
    plus = qfi_matrix(ChainParams(0.999, 0.2, 0.3))
    assert minus.det > 0.0
    assert minus.det / plus.det > 1e3 or plus.det / minus.det > 1e3


def test_sloppiness_never_negative_on_fig5_grid():
    # the QFIM is positive semidefinite; at D = 0 it is exactly singular,
    # and roundoff must not show up as a negative det or ratio
    ds = np.linspace(-0.4, 0.4, 81)
    for gamma in (0.2, 0.5, 0.7, 1.0):
        table = sweep(SweepSpec("D", (-0.4, 0.4, 81),
                                {"J": 0.999, "gamma": gamma},
                                quantities=("det",)))
        assert np.all(table.columns["det"] >= 0.0)
        assert np.all(table.columns["condition_ratio"] >= 0.0)
        for D in ds:
            rep = qfi_matrix(ChainParams(0.999, gamma, float(D)))
            assert rep.det >= 0.0 and rep.condition_ratio >= 0.0
            assert np.all(rep.eigenvalues >= 0.0)
    rep = qfi_matrix(ChainParams(0.999, 0.2, 0.0))
    assert rep.det >= 0.0 and rep.condition_ratio >= 0.0
    assert np.all(rep.eigenvalues >= 0.0)


def test_extremal_anisotropy_is_sloppy():
    # gamma = 1: one quasi-flat direction, spectrum spans many decades
    rep = qfi_matrix(ChainParams(0.9, 1.0, 0.1))
    assert rep.condition_ratio < 1e-4


# --------------------------------------------------------------------- CRB

def test_matrix_crb_inverse():
    m = qfi_matrix(REF)
    cov = matrix_crb(m)
    assert np.allclose(cov @ m.matrix, np.eye(3), atol=1e-8)
    assert np.allclose(matrix_crb(m, shots=100), cov / 100.0)


def test_matrix_crb_diagonal_bounds_single_parameter():
    # joint estimation can never beat the single-parameter bound
    m = qfi_matrix(REF)
    cov = matrix_crb(m)
    for i in range(3):
        assert cov[i, i] >= 1.0 / m.matrix[i, i] - 1e-12


def test_matrix_crb_rejects_singular():
    near_singular = QfiMatrix(np.diag([1.0, 1.0, 1e-12]))
    with pytest.raises(SingularInformation):
        matrix_crb(near_singular)
    with pytest.raises(ValueError):
        matrix_crb(qfi_matrix(REF), shots=0)


def test_matrix_crb_refuses_a_shot_count_that_is_not_an_integer():
    m = qfi_matrix(ChainParams(0.5, 0.7, 0.3))
    for shots in (2.5, 100.0):
        with pytest.raises(ValueError, match="integer"):
            matrix_crb(m, shots=shots)
    assert np.array_equal(matrix_crb(m, shots=np.int64(100)),
                          matrix_crb(m, shots=100))


def test_condition_floor_value():
    assert CONDITION_FLOOR == 1e-10
