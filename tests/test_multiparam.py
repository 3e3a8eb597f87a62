"""QFI matrix, Uhlmann compatibility and sloppiness diagnostics."""

import sys

import numpy as np
import pytest

from dmchain.chain import PARAM_TAGS, ChainParams, CriticalPoint, chain_point
from dmchain.fisher import qfi_xstate
from dmchain.multiparam import (CONDITION_FLOOR, QfiMatrix, SingularInformation,
                                SloppinessReport, UhlmannMatrix, matrix_crb,
                                qfi_matrix, qfim_det, uhlmann_matrix)
from dmchain.sweep import SweepSpec, sweep

sys.path.insert(0, "tests")
from _oracles import drho_fd, rho_direct, sld

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
    rho = pt.state.matrix()
    ls = [sld(rho, pt.dstate[t].matrix()) for t in PARAM_TAGS]
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
    for wrt in ("J", "gamma", "D"):
        assert m.entry(wrt, wrt) == pytest.approx(qfi_xstate(REF, wrt), rel=1e-10)


def test_qfim_symmetric_psd():
    m = qfi_matrix(ChainParams(0.9, 0.5, -0.2)).matrix
    assert np.allclose(m, m.T)
    assert np.linalg.eigvalsh(m).min() >= -1e-12


def test_qfi_matrix_validation():
    with pytest.raises(ValueError):
        QfiMatrix(np.eye(2))
    with pytest.raises(ValueError):
        QfiMatrix(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError):
        QfiMatrix(-np.eye(3))


def test_entry_lookup():
    m = qfi_matrix(REF)
    assert m.entry("J", "gamma") == m.entry("gamma", "J")
    with pytest.raises(ValueError):
        m.entry("J", "kappa")


# ----------------------------------------------------------------- Uhlmann

def test_uhlmann_vanishes_for_real_family():
    # real symmetric state and derivatives: all SLDs are real, so every
    # commutator expectation is pure roundoff
    scale = qfi_matrix(REF).matrix.max()
    u = uhlmann_matrix(REF).magnitudes()
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
    assert u.magnitudes()[0, 1] == 1.0


def test_sld_commutator_route():
    pt = chain_point(REF, ("J", "gamma"))
    rho = pt.state.matrix()
    lj = sld(rho, pt.dstate["J"].matrix())
    lg = sld(rho, pt.dstate["gamma"].matrix())
    val = 0.5 * np.trace(rho @ (lj @ lg - lg @ lj)).real
    assert uhlmann_matrix(REF).matrix[0, 1] == pytest.approx(val, abs=1e-12)


# -------------------------------------------------------------- sloppiness

def test_sloppiness_report_fields():
    rep = qfim_det(REF)
    m = qfi_matrix(REF).matrix
    assert rep.det == pytest.approx(np.linalg.det(m), rel=1e-8)
    assert rep.eigenvalues[0] >= rep.eigenvalues[1] >= rep.eigenvalues[2]
    assert rep.condition_ratio == pytest.approx(
        rep.eigenvalues[-1] / rep.eigenvalues[0], rel=1e-12)


def test_dm_sign_breaks_near_critical_degeneracy():
    # at J just below the critical coupling the D < 0 chain carries a
    # far less singular information matrix than D > 0
    minus = qfim_det(ChainParams(0.999, 0.2, -0.3))
    plus = qfim_det(ChainParams(0.999, 0.2, 0.3))
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
            rep = qfim_det(ChainParams(0.999, gamma, float(D)))
            assert rep.det >= 0.0 and rep.condition_ratio >= 0.0
            assert np.all(rep.eigenvalues >= 0.0)
    rep = qfim_det(ChainParams(0.999, 0.2, 0.0))
    assert rep.det >= 0.0 and rep.condition_ratio >= 0.0
    assert np.all(rep.eigenvalues >= 0.0)


def test_extremal_anisotropy_is_sloppy():
    # gamma = 1: one quasi-flat direction, spectrum spans many decades
    rep = qfim_det(ChainParams(0.9, 1.0, 0.1))
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
    for i, wrt in enumerate(("J", "gamma", "D")):
        assert cov[i, i] >= 1.0 / m.entry(wrt, wrt) - 1e-12


def test_matrix_crb_rejects_singular():
    near_singular = QfiMatrix(np.diag([1.0, 1.0, 1e-12]))
    with pytest.raises(SingularInformation):
        matrix_crb(near_singular)
    with pytest.raises(ValueError):
        matrix_crb(qfi_matrix(REF), shots=0)


def test_condition_floor_value():
    assert CONDITION_FLOOR == 1e-10
