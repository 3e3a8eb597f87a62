"""Acceptance gate: the fourteen headline checks, one verdict line each.

Each test prints a single line with the measured margin next to the
stated tolerance.  Three saturation-floor checks (04b, 04c and 05a)
encode documented floors that the computed curves do not reach; they
are kept at their stated values and fail honestly rather than being
loosened to match the code.
"""

import dataclasses
import math
import os
import time
import warnings

import numpy as np
import pytest

from dmchain.chain import PARAM_TAGS, ChainParams, chain_point
from dmchain.features import classify_curve, default_curve
from dmchain.fisher import fisher_point, magnetization_fi, qfi_xstate
from dmchain.multiparam import qfi_matrix, uhlmann_matrix
from dmchain.protocol import ProtocolConfig, adaptive_run
from dmchain.sweep import FIGURES, _batch, figure_bundle

from _oracles import qfi_eigen, x_matrix

GAMMAS = (0.2, 0.5, 0.7, 1.0)
DS = (0.0, 0.02, 0.1, 0.2, 0.3)


def nudged_j_grid(n):
    js = np.linspace(-2.0, 2.0, n)
    on = np.abs(np.abs(js) - 1.0) <= 1e-9
    return np.where(on, np.sign(js) * 0.999, js)


def line(tag, text):
    print("[%s] %s" % (tag, text))


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def grid21():
    """F, block-QFI and eigen-QFI for every tag on the 21x4x5 grid."""
    t0 = time.monotonic()
    rows = []
    for J in nudged_j_grid(21):
        for g in GAMMAS:
            for D in DS:
                params = ChainParams(float(J), g, D)
                pt = chain_point(params, PARAM_TAGS)
                rho = x_matrix(pt.state)
                for tag in PARAM_TAGS:
                    F = magnetization_fi(params, tag)
                    Hb = qfi_xstate(params, tag)
                    He = qfi_eigen(rho, x_matrix(pt.dstate[tag]))
                    rows.append((F, Hb, He))
    return rows, time.monotonic() - t0


@pytest.fixture(scope="module")
def fig1_curves():
    """F and H against J at D = 0 for the four anisotropies."""
    js = np.linspace(-2.0, 2.0, 400)
    curves = {}
    for g in GAMMAS:
        F = np.empty(len(js))
        H = np.empty(len(js))
        for i, j in enumerate(js):
            fp = fisher_point(ChainParams(float(j), g, 0.0), "J")
            F[i], H[i] = fp.F, fp.H
        curves[g] = (F, H)
    return js, curves


@pytest.fixture(scope="module")
def fig6_mats():
    """QFIM and Uhlmann matrices on the gamma = 1 J-grid per D case."""
    js = np.linspace(-2.0, 2.0, 160)
    out = {}
    for D in (0.01, 0.1, 0.2, 0.3):
        ms, us = [], []
        for j in js:
            params = ChainParams(float(j), 1.0, D)
            ms.append(qfi_matrix(params).matrix)
            us.append(np.abs(uhlmann_matrix(params).matrix))
        out[D] = (np.array(ms), np.array(us))
    return out


@pytest.fixture(scope="module")
def fig4_mats():
    """QFIM and Uhlmann matrices against D at J = 0.999, gamma = 0.2."""
    ds = np.linspace(-0.4, 0.4, 81)
    ms, us = [], []
    for d in ds:
        params = ChainParams(0.999, 0.2, float(d))
        ms.append(qfi_matrix(params).matrix)
        us.append(np.abs(uhlmann_matrix(params).matrix))
    return ds, np.array(ms), np.array(us)


# ----------------------------------------------------------------- checks

def test_01_qfi_dual_route_grid(grid21):
    rows, elapsed = grid21
    worst = 0.0
    for _, Hb, He in rows:
        dev = abs(Hb - He) / max(abs(He), 1e-6)
        worst = max(worst, dev)
    line("01", "dual-route QFI on 21x4x5 grid, all tags: max rel dev %.2e "
         "(tol 1e-6), %.1fs" % (worst, elapsed))
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_02_derivatives_vs_finite_differences():
    rng = np.random.default_rng(20240822)
    h = 1e-4
    worst = 0.0
    n = 0
    while n < 50:
        J = float(rng.uniform(-2.0, 2.0))
        if abs(abs(J) - 1.0) < 0.05:
            continue
        g = float(rng.uniform(0.1, 0.999))
        D = float(rng.uniform(-0.4, 0.4))
        n += 1
        params = ChainParams(J, g, D)
        for tag in PARAM_TAGS:
            ana = chain_point(params, (tag,)).dcorr[tag]
            x0 = getattr(params, tag)

            def f(x):
                c = chain_point(dataclasses.replace(params, **{tag: x})).corr
                return np.array([c.mz, c.gxx, c.gyy, c.gzz])

            fd = (f(x0 - 2 * h) - 8 * f(x0 - h)
                  + 8 * f(x0 + h) - f(x0 + 2 * h)) / (12 * h)
            got = np.array([ana.mz, ana.gxx, ana.gyy, ana.gzz])
            dev = np.max(np.abs(got - fd) / np.maximum(np.abs(fd), 1e-3))
            worst = max(worst, float(dev))
    line("02", "analytic derivatives vs 5-point differences at 50 random "
         "points: max rel dev %.2e (tol 1e-6)" % worst)
    assert worst <= 1e-6


def test_03_classical_bounded_by_quantum(grid21):
    rows, _ = grid21
    worst = max(F - Hb for F, Hb, _ in rows)
    line("03", "F <= H + 1e-9 on the full grid: max F - H = %.2e" % worst)
    assert worst <= 1e-9


def test_04a_information_even_without_dm(fig1_curves):
    _, curves = fig1_curves
    worst = 0.0
    for g in GAMMAS:
        H = curves[g][1]
        rel = np.abs(H - H[::-1]) / np.maximum(np.abs(H), np.abs(H[::-1]))
        worst = max(worst, float(rel.max()))
    line("04a", "H(J) evenness at D=0, four curves: max rel asym %.2e "
         "(tol 1e-8)" % worst)
    assert worst <= 1e-8


def test_04b_saturation_floor_no_dm(fig1_curves):
    _, curves = fig1_curves
    mins = {g: float((curves[g][0] / curves[g][1]).min()) for g in GAMMAS}
    detail = "  ".join("g=%g: %.4f" % (g, mins[g]) for g in GAMMAS)
    ok = all(v > 0.89 for v in mins.values())
    line("04b", "min S per curve at D=0 (floor 0.89): %s -> %s"
         % (detail, "PASS" if ok else "FAIL"))
    assert ok, "saturation floor 0.89 not reached: %s" % detail


def test_04c_saturation_floor_high_coupling(fig1_curves):
    js, curves = fig1_curves
    sel = (js >= 1.0) & (js <= 2.0)
    mins = {g: float((curves[g][0][sel] / curves[g][1][sel]).min())
            for g in GAMMAS}
    detail = "  ".join("g=%g: %.4f" % (g, mins[g]) for g in GAMMAS)
    ok = all(v > 0.98 for v in mins.values())
    line("04c", "min S on J in [1,2] at D=0 (floor 0.98): %s -> %s"
         % (detail, "PASS" if ok else "FAIL"))
    assert ok, "saturation floor 0.98 not reached on [1,2]: %s" % detail


def test_05a_saturation_floors_with_dm():
    js = np.linspace(-2.0, 2.0, 400)
    mins = {}
    for g, floor in ((0.7, 0.9), (0.2, 0.95)):
        vals = []
        for D in DS:
            for j in js:
                fp = fisher_point(ChainParams(float(j), g, D), "J")
                vals.append(fp.S)
        mins[g] = (float(np.nanmin(vals)), floor)
    detail = "  ".join("g=%g: min %.4f floor %.2f" % (g, v, f)
                       for g, (v, f) in mins.items())
    ok = all(v > f for v, f in mins.values())
    line("05a", "min S across D sets: %s -> %s"
         % (detail, "PASS" if ok else "FAIL"))
    assert ok, "saturation floors with antisymmetric exchange: %s" % detail


def test_05b_curve_feature_classes():
    expected = {(0.2, 0.1): "bump", (0.2, 0.2): "peak",
                (0.2, 0.3): "peak", (0.7, 0.3): "bump"}
    got = {}
    for (g, D), _ in expected.items():
        js, hs = default_curve(g, D)
        got[(g, D)] = classify_curve(js, hs)
    line("05b", "feature classes %s (expected %s)" % (got, expected))
    assert got == expected


def test_06_matrix_diagonal_magnitudes(fig4_mats):
    _, ms, _ = fig4_mats
    peaks = (float(ms[:, 0, 0].max()), float(ms[:, 1, 1].max()),
             float(ms[:, 2, 2].max()))
    windows = ((200.0, 600.0), (1.0, 6.0), (10.0, 40.0))
    line("06", "max over D at J=0.999, g=0.2: H_JJ %.1f in [200,600], "
         "H_gg %.2f in [1,6], H_DD %.1f in [10,40]" % peaks)
    for peak, (lo, hi) in zip(peaks, windows):
        assert lo <= peak <= hi


def test_07_uhlmann_compatibility(fig4_mats, fig6_mats):
    _, m4, u4 = fig4_mats
    worst4 = float(u4.max()) / float(np.abs(m4).max())
    worst6 = 0.0
    for ms, us in fig6_mats.values():
        worst6 = max(worst6, float(us.max()) / float(np.abs(ms).max()))
    line("07", "max |U| / max H: %.2e (D sweep), %.2e (g=1 grid), "
         "tol 1e-8" % (worst4, worst6))
    assert worst4 <= 1e-8
    assert worst6 <= 1e-8


def test_08_sloppiness(fig6_mats):
    neg = qfi_matrix(ChainParams(0.999, 0.2, -0.3))
    pos = qfi_matrix(ChainParams(0.999, 0.2, 0.2))
    ratio = neg.det / pos.det
    per_case = {}
    for D, (ms, _) in fig6_mats.items():
        conds = []
        for m in ms:
            ev = np.linalg.eigvalsh(m)
            conds.append(ev[0] / ev[-1] if ev[-1] > 0 else 0.0)
        per_case[D] = float(min(conds))
    line("08", "det(D=-0.3)=%.4g > 0, det ratio to D=+0.2: %.3g (need "
         ">= 1e3); min eigenvalue collapse per g=1 case: %s (tol 1e-4)"
         % (neg.det, ratio, {d: "%.1e" % v for d, v in per_case.items()}))
    assert neg.det > 0.0
    assert ratio >= 1e3
    for D, worst in per_case.items():
        assert worst <= 1e-4, "gamma=1, D=%g never collapses" % D


def test_09_protocol_efficiency():
    t0 = time.monotonic()
    base = dict(J_true=0.9, gamma=1.0, D=0.0, J_guess=0.9, shots=10_000,
                rounds=3, grid=(0.02, 2.5, 801))
    traces = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(100):
            traces.append(adaptive_run(ProtocolConfig(seed=seed, **base)))
    fisher = magnetization_fi(ChainParams(0.9, 1.0, 0.0), "J")
    crb = 1.0 / (10_000 * fisher)
    med = float(np.median([t.final_variance for t in traces]))
    emp = float(np.var([t.final_estimate for t in traces], ddof=1))
    monotone = 0
    for t in traces:
        vs = [r.variance_est for r in t.rounds]
        finite = [v for v in vs if math.isfinite(v)]
        monotone += finite == sorted(finite, reverse=True)
    elapsed = time.monotonic() - t0
    line("09", "100 seeds: median var proxy %.3e, empirical var %.3e vs "
         "1.5x bound %.3e; monotone %d%%; %.1fs"
         % (med, emp, 1.5 * crb, monotone, elapsed))
    assert med <= 1.5 * crb
    assert emp <= 1.5 * crb
    assert monotone >= 80
    assert elapsed < 60.0


def test_10_protocol_robustness():
    base = dict(J_true=-0.7, gamma=0.7, J_guess=-0.3, shots=10_000, rounds=3,
                grid=(-2.5, 2.5, 801))
    conv = {0.0: 0, 0.1: 0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(200):
            for D in conv:
                trace = adaptive_run(ProtocolConfig(D=D, seed=seed, **base))
                conv[D] += trace.converged
    line("10", "poor guess, 200 paired seeds: converged %d/200 (D=0) vs "
         "%d/200 (D=0.1)" % (conv[0.0], conv[0.1]))
    assert conv[0.1] >= conv[0.0]


def test_11_figure_determinism(tmp_path):
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in FIGURES:
            pair = []
            for run in ("a", "b"):
                # each run recomputes, not reuses, the earlier sweeps
                _batch.cache_clear()
                d = os.path.join(tmp_path, name + run)
                paths = figure_bundle(name, d)
                pair.append(b"".join(open(p, "rb").read() for p in paths))
            outcomes.append(pair[0] == pair[1])
    line("11", "figure bundles byte-identical across two runs: %s"
         % dict(zip(FIGURES, outcomes)))
    assert all(outcomes)
