"""Batched evaluation of parameter families against the per-point path."""

from dataclasses import astuple

import numpy as np
import pytest

import dmchain.chain as chain_mod
from dmchain.chain import (PARAM_TAGS, ChainParams, CriticalPoint,
                           PositivityViolation, chain_point, chain_points)
from dmchain.features import WINDOW
from dmchain.fisher import _qfi_points, qfi_xstate
from dmchain.quadrature import (DEFAULT_QUAD, QuadratureConfig,
                                QuadratureFailure, integrate_points)


def batched_h(js, gamma, D):
    return _qfi_points(chain_points(js, gamma, D, ("J",)), "J")


def scalar_h(js, gamma, D):
    return np.array([qfi_xstate(ChainParams(float(j), gamma, D), "J") for j in js])


# ------------------------------------------------------------ quadrature

def start(n, a, b):
    """Start panels (lo, hi, counts) of n points, 8 uniform ones on [a, b]."""
    edges = np.linspace(a, b, 9)
    return np.tile(edges[:-1], n), np.tile(edges[1:], n), np.full(n, 8)


def lorentzians(widths):
    """Peaks at 0.3 whose sharpness and size both vary by point."""
    widths = np.asarray(widths)

    def f(x, owner):
        a = widths[owner]
        return np.stack([a * a / (a * a + (x - 0.3) ** 2), np.cos(x) * a])

    def exact(a):
        return a * (np.arctan((2.0 - 0.3) / a) - np.arctan((0.0 - 0.3) / a))

    return f, exact


def test_points_meet_their_own_tolerance():
    widths = np.geomspace(1e-4, 1.0, 13)
    f, exact = lorentzians(widths)
    config = QuadratureConfig(1e-12, 1e-10, 4096)
    vals, errs = integrate_points(f, *start(widths.size, 0.0, 2.0), config)
    assert vals.shape == errs.shape == (2, widths.size)
    assert np.all(errs <= np.maximum(config.abs_tol, config.rel_tol * np.abs(vals)))
    assert np.allclose(vals[0], exact(widths), rtol=1e-9, atol=0.0)
    assert np.allclose(vals[1], widths * (np.sin(2.0) - np.sin(0.0)),
                       rtol=1e-12, atol=1e-15)


def test_point_values_do_not_depend_on_the_family():
    widths = np.geomspace(1e-4, 1.0, 13)
    f, _ = lorentzians(widths)
    relative = QuadratureConfig(1e-300, 1e-10, 4096)  # no absolute floor
    vals, errs = integrate_points(f, *start(widths.size, 0.0, 2.0), relative)
    for subset in ([0], [5], [12], [2, 3, 4], [11, 0, 7]):
        g, _ = lorentzians(widths[subset])
        v, e = integrate_points(g, *start(len(subset), 0.0, 2.0), relative)
        assert np.array_equal(v, vals[:, subset])
        assert np.array_equal(e, errs[:, subset])


def test_points_agree_with_single_stack_engine():
    # each point of the family against that point integrated alone
    widths = np.geomspace(1e-4, 1.0, 7)
    f, _ = lorentzians(widths)
    vals, errs = integrate_points(f, *start(widths.size, 0.0, 2.0))
    for i in range(widths.size):
        ref, ref_err = integrate_points(
            lambda x, owner: f(x, np.full(x.size, i)), *start(1, 0.0, 2.0))
        assert np.array_equal(vals[:, i], ref[:, 0])
        assert np.array_equal(errs[:, i], ref_err[:, 0])


def test_exhausted_point_fails_the_family():
    widths = np.array([1.0, 1e-6, 0.5])
    f, _ = lorentzians(widths)
    nodes = np.zeros(widths.size, dtype=int)

    def recording(x, owner):
        np.add.at(nodes, owner, 1)
        return f(x, owner)

    config = QuadratureConfig(1e-10, 1e-10, 16)
    lo, hi, counts = start(widths.size, 0.0, 2.0)
    with pytest.raises(QuadratureFailure, match="point 1") as info:
        integrate_points(recording, lo, hi, counts, config)
    # every split adds one panel and evaluates its two halves:
    # nodes = 15 (start + 2 splits) and panels = start + splits
    splits, rest = np.divmod(nodes // 15 - counts, 2)
    assert np.all(nodes % 15 == 0) and np.all(rest == 0)
    panels = counts + splits
    assert panels.max() <= config.max_subdivisions
    assert f"with {panels[1]} panels" in str(info.value)
    # the easy points alone fit in the same budget
    g, _ = lorentzians(widths[[0, 2]])
    integrate_points(g, *start(2, 0.0, 2.0), config)


def test_empty_family():
    f, _ = lorentzians([])
    vals, errs = integrate_points(f, *start(0, 0.0, 2.0))
    assert vals.shape == errs.shape == (2, 0)
    with pytest.raises(ValueError):
        integrate_points(f, *start(1, 2.0, 0.0))
    lo, hi, _ = start(2, 0.0, 2.0)
    for counts in ([16, 0], [8, 7], [8, 9]):
        with pytest.raises(ValueError, match="counts must sum"):
            integrate_points(f, lo, hi, counts)


def test_chain_points_meet_their_own_tolerance():
    # the real integrand on the detection window, down to 2e-3 from J = -1
    js = np.linspace(WINDOW[0], WINDOW[1], 561)

    def f(phi, owner):
        return chain_mod._integrand_rows(js[owner], 0.2, 0.3, ("J",), phi)

    vals, errs = integrate_points(
        f, *chain_mod._start_mesh(js, DEFAULT_QUAD.max_subdivisions))
    assert np.all(errs <= np.maximum(DEFAULT_QUAD.abs_tol,
                                     DEFAULT_QUAD.rel_tol * np.abs(vals)))


# ------------------------------------------------------------ chain layer

def fields_of(pt):
    """Every value of a ChainPoints: correlators, state and derivatives."""
    return (astuple(pt.corr) + astuple(pt.state)
            + sum((astuple(pt.dcorr[t]) + astuple(pt.dstate[t])
                   for t in sorted(pt.dcorr)), ()))


def test_chain_points_match_chain_point():
    # The last two points catch a float and an array rounding one product
    # differently: J ** 3 in the D row, and (1 + mz) ** 2 in the state.
    points = [(-1.998, 0.7, 0.1), (-0.5, 0.7, 0.1), (0.3, 0.7, 0.1),
              (0.999, 0.7, 0.1), (1.5, 0.7, 0.1), (1.45, 0.7, 0.1),
              (-0.9852378297674188, -0.4603264289983997, 0.3631202041893178)]
    for tags in ((), ("J",), PARAM_TAGS):
        pts = chain_points(*zip(*points), tags)
        assert set(pts.dcorr) == set(tags)
        family = fields_of(pts)
        for i, p in enumerate(points):
            ref = fields_of(chain_point(ChainParams(*p), tags))
            assert all(type(v) is float for v in ref)
            assert [v[i] for v in family] == list(ref)


def test_chain_point_failure_names_the_couplings():
    with pytest.raises(QuadratureFailure,
                       match=r"J = 0\.99999, gamma = 0\.01, D = 0\.3\)"):
        chain_point(ChainParams(0.99999, 0.01, 0.3), ("J",),
                    QuadratureConfig(max_subdivisions=9))


def test_couplings_whose_integrals_are_not_finite_fail():
    # at D = 1e308, 2 D sin(phi) would overflow in the integrands: the
    # couplings are refused before any pass, by the scalar and the batch
    with pytest.raises(ValueError, match=r"\(1 \+ \|J\|\)\(1 \+ 2\|D\|\)"):
        chain_point(ChainParams(0.5, 0.5, 1e308))
    with pytest.raises(ValueError, match=r"J=0\.5, gamma=0\.5, D=1e\+308"):
        chain_points([0.3, 0.5], 0.5, [0.1, 1e308])


def test_chain_points_broadcasts_parameters():
    pts = chain_points(0.5, [0.2, 0.7], [[0.0], [0.1]])
    # broadcast order: gamma varies fastest, then D
    order = [(0.2, 0.0), (0.7, 0.0), (0.2, 0.1), (0.7, 0.1)]
    assert list(pts.corr.mz) == [chain_point(ChainParams(0.5, g, d)).corr.mz
                                 for g, d in order]
    assert pts.dcorr == {}


def test_chain_points_raise_the_scalar_errors():
    with pytest.raises(CriticalPoint):
        chain_points([0.5, -1.0, 0.3], 0.7, 0.1, ("J",))
    with pytest.raises(CriticalPoint):
        chain_points([0.2, 0.99], 0.0, 0.1, ("J",))
    chain_points([0.5, -1.0], 0.7, 0.1)  # no derivatives, no divergence
    with pytest.raises(ValueError):
        chain_points([0.5, 0.6], [0.2, 1.5], 0.1)
    with pytest.raises(ValueError):
        chain_points([0.5, np.nan], 0.2, 0.1)
    with pytest.raises(ValueError):
        chain_points([0.5], 0.2, 0.1, ("B",))
    with pytest.raises(QuadratureFailure):
        chain_points([0.5, -0.9999, 1.5], 0.2, 0.1, ("J",),
                     QuadratureConfig(1e-10, 1e-10, 8))


def test_chain_points_raise_positivity_at_first_bad_point(monkeypatch):
    assemble = chain_mod._assemble

    def corrupted(mz, even, odd):
        corr = assemble(mz, even, odd)
        gzz = corr.gzz.copy()
        gzz[[2, 4]] = 1.5  # inner block weight (1 - gzz)/4 < 0
        return chain_mod.Correlators(corr.mz, corr.gxx, corr.gyy, gzz)

    monkeypatch.setattr(chain_mod, "_assemble", corrupted)
    with pytest.raises(PositivityViolation, match="negative diagonal"):
        chain_points(np.linspace(0.1, 0.5, 5), 0.7, 0.1)


# ------------------------------------------------------------ information

@pytest.mark.parametrize("D", [0.0, 0.1, 0.2, 0.3])
def test_h_on_detection_window_matches_scalar(D):
    js = np.linspace(WINDOW[0], WINDOW[1], 561)
    assert np.array_equal(batched_h(js, 0.2, D), scalar_h(js, 0.2, D))


def test_h_on_far_side_matches_scalar():
    js = np.linspace(1.2, 2.0, 81)
    for D in (0.0, 0.15, 0.3):
        assert np.array_equal(batched_h(js, 0.7, D), scalar_h(js, 0.7, D))


def test_h_point_is_bit_identical_alone_in_chunk_and_curve():
    js = np.linspace(WINDOW[0], WINDOW[1], 561)
    curve = batched_h(js, 0.2, 0.2)
    for k in (0, 1, 280, 559, 560):
        assert batched_h(js[k:k + 1], 0.2, 0.2)[0] == curve[k]
    assert np.array_equal(batched_h(js[100:233], 0.2, 0.2), curve[100:233])
    assert np.array_equal(batched_h(js[::2], 0.2, 0.2), curve[::2])
    assert np.array_equal(batched_h(js[::-1], 0.2, 0.2), curve[::-1])
