"""Curve classification and D-threshold detection."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.signal import find_peaks

import dmchain.features as features_mod
from dmchain.features import (BRACKET_WIDTH, DEFAULT_POINTS, MIN_POINTS,
                              PEAK_PROMINENCE, SLOPE_PROMINENCE, WINDOW,
                              FeatureReport, FlatProfile,
                              InsufficientResolution, _bounded_max, _h_curve,
                              _has_peak, _integrated_h, classify_curve,
                              default_curve, detect_d_loss, detect_features)
from dmchain.quadrature import DEFAULT_QUAD


def synthetic_sampler(gamma, D, points, quad):
    """Analytic curve family with known class transitions in D.

    monotone below D = 0.1, shoulder (bump) from 0.1, secondary maximum
    (peak) from 0.2.  gamma and quad are ignored.
    """
    js = np.linspace(0.0, 1.0, points)
    log_h = 3.0 * js + 0.2 * js ** 2
    if D >= 0.1:
        log_h = log_h + 0.5 * np.tanh((js - 0.5) / 0.05)
    hs = np.exp(log_h)
    if D >= 0.2:
        hs = hs * (1.0 + 2.0 * np.exp(-((js - 0.3) / 0.05) ** 2))
    return js, hs


# ----------------------------------------------------------- classification

def test_synthetic_classes():
    js, hs = synthetic_sampler(0.0, 0.05, 401, None)
    assert classify_curve(js, hs) == "monotone"
    js, hs = synthetic_sampler(0.0, 0.15, 401, None)
    assert classify_curve(js, hs) == "bump"
    js, hs = synthetic_sampler(0.0, 0.25, 401, None)
    assert classify_curve(js, hs) == "peak"


def test_log_linear_curve_is_monotone():
    # slope variation at roundoff level must not register as structure
    js = np.linspace(0.0, 1.0, 401)
    assert classify_curve(js, np.exp(3.0 * js)) == "monotone"


def test_classify_validation():
    js = np.linspace(0.0, 1.0, 300)
    hs = np.exp(js)
    with pytest.raises(ValueError):
        classify_curve(js, hs[:-1])
    with pytest.raises(ValueError):
        classify_curve(js[:100], hs[:100])
    with pytest.raises(ValueError):
        classify_curve(js[::-1], hs)
    with pytest.raises(ValueError):
        classify_curve(js, hs - hs.min())  # zero entry


def test_classify_rejects_non_finite_curve():
    js = np.linspace(0.0, 1.0, 301)
    hs = np.exp(js)
    hs[150] = np.nan
    with pytest.raises(ValueError, match="finite"):
        classify_curve(js, hs)
    hs[150] = np.inf
    with pytest.raises(ValueError, match="finite"):
        classify_curve(js, hs)


def test_classify_undersampled_spike():
    # one-sample spike at an odd index: visible at full resolution,
    # gone after decimation, so the verdict cannot be trusted
    js = np.linspace(0.0, 1.0, 301)
    hs = np.exp(js)
    hs[151] *= 3.0
    with pytest.raises(InsufficientResolution):
        classify_curve(js, hs)


def test_report_orders_thresholds():
    with pytest.raises(ValueError):
        FeatureReport(gamma=0.2, classifications={}, d_bump=0.3, d_peak=0.1)


# -------------------------------------------------------- threshold search

def test_detect_features_synthetic_thresholds():
    rep = detect_features(0.0, [0.05, 0.15, 0.25], d_scan=(0.0, 0.3),
                          points=401, sampler=synthetic_sampler)
    assert rep.classifications == {0.05: "monotone", 0.15: "bump", 0.25: "peak"}
    assert abs(rep.d_bump - 0.1) <= BRACKET_WIDTH
    assert abs(rep.d_peak - 0.2) <= BRACKET_WIDTH
    assert rep.d_bump_bracket[0] <= rep.d_bump <= rep.d_bump_bracket[1]
    assert rep.d_peak_bracket[1] - rep.d_peak_bracket[0] <= BRACKET_WIDTH
    assert rep.d_bump <= rep.d_peak


def test_detect_features_no_transition_in_scan():
    rep = detect_features(0.0, [0.02, 0.05], points=401,
                          sampler=synthetic_sampler)
    assert rep.d_bump is None and rep.d_peak is None
    rep = detect_features(0.0, [0.15, 0.18], points=401,
                          sampler=synthetic_sampler)
    assert rep.d_bump is None  # scan interval already past the bump onset
    with pytest.raises(ValueError):
        detect_features(0.0, [])
    with pytest.raises(ValueError):
        detect_features(0.0, np.array([]))


def test_detect_features_takes_an_array_of_d():
    ds = [0.05, 0.15, 0.25]
    assert (detect_features(0.0, np.array(ds), points=401,
                            sampler=synthetic_sampler)
            == detect_features(0.0, ds, points=401, sampler=synthetic_sampler))


def test_sampler_called_once_per_d_at_double_resolution():
    calls = []

    def recording(gamma, D, points, quad):
        calls.append((D, points))
        return synthetic_sampler(gamma, D, points, quad)

    rep = detect_features(0.0, [0.05, 0.15, 0.25, 0.3], d_scan=(0.0, 0.3),
                          points=401, sampler=recording)
    assert rep.classifications == {0.05: "monotone", 0.15: "bump",
                                   0.25: "peak", 0.3: "peak"}
    ds = [d for d, _ in calls]
    assert len(ds) == len(set(ds))  # 0.3 is both requested and the scan end
    assert {n for _, n in calls} == {801}


def corrupting(defect):
    def sampler(gamma, D, points, quad):
        js, hs = synthetic_sampler(gamma, D, points, quad)
        if D >= 0.25:  # only the curve at the top of the scan is broken
            js, hs = defect(js.copy(), hs.copy())
        return js, hs
    return sampler


def set_middle(value):
    def defect(js, hs):
        hs[hs.size // 2] = value
        return js, hs
    return defect


@pytest.mark.parametrize("defect", [
    set_middle(np.nan), set_middle(np.inf), set_middle(0.0),
    lambda js, hs: (js[::-1], hs),
    lambda js, hs: (js, hs[:-1]),
], ids=["nan", "inf", "zero", "decreasing", "ragged"])
def test_detect_features_rejects_bad_sampled_curve(defect):
    with pytest.raises(ValueError):
        detect_features(0.0, [0.05, 0.3], points=401,
                        sampler=corrupting(defect))


@pytest.mark.parametrize("points", [281.5, 281.0, 1, None])
def test_detect_features_refuses_a_bad_point_count(points):
    with pytest.raises(ValueError, match="points"):
        detect_features(0.2, (0.1,), points=points,
                        sampler=synthetic_sampler)


def test_detect_features_rejects_inverted_scan():
    with pytest.raises(ValueError, match="scan"):
        detect_features(0.0, [0.05, 0.15], d_scan=(0.3, 0.0), points=401,
                        sampler=synthetic_sampler)


# ------------------------------------------------------------- real curves

def test_default_curve_shape():
    js, hs = default_curve(0.2, 0.0)
    assert js.shape == hs.shape == (DEFAULT_POINTS,)
    assert js[0] == WINDOW[0] and js[-1] == WINDOW[1]
    assert np.all(hs > 0.0)
    assert len(js) >= MIN_POINTS


def test_real_curve_classes_spot():
    js, hs = default_curve(0.2, 0.0)
    assert classify_curve(js, hs) == "monotone"
    js, hs = default_curve(0.2, 0.2)
    assert classify_curve(js, hs) == "peak"
    js, hs = default_curve(0.7, 0.3)
    assert classify_curve(js, hs) == "bump"


def test_detect_features_evaluates_each_point_once(monkeypatch):
    # count the H evaluations through the batched evaluator features uses
    batches = []
    chain_points = features_mod.chain_points

    def counting(J, gamma, D, *args, **kwargs):
        batches.append((np.array(J, dtype=float), float(gamma), float(D)))
        return chain_points(J, gamma, D, *args, **kwargs)

    monkeypatch.setattr(features_mod, "chain_points", counting)
    rep = detect_features(0.2, (0.1, 0.2, 0.3), d_scan=(0, 0.3))
    assert len(batches) == 19
    assert all(js.size == 561 for js, _, _ in batches)
    pairs = [(j, D) for js, _, D in batches for j in js.tolist()]
    assert len(pairs) == len(set(pairs)) == 19 * 561
    assert rep.classifications == {0.1: "bump", 0.2: "peak", 0.3: "peak"}
    assert rep.d_bump == 0.08115234375
    assert rep.d_bump_bracket == pytest.approx((0.080859375, 0.0814453125),
                                               rel=1e-12)
    assert rep.d_peak == pytest.approx(0.1444336, abs=1e-7)
    assert rep.d_peak_bracket == pytest.approx((0.144140625, 0.144726563),
                                               abs=1e-9)


# ----------------------------------------------------------------- d_loss

def test_d_loss_interior_maximizer():
    d_loss, bracket, (ds, profile) = detect_d_loss(0.2, j_points=81)
    assert bracket[0] <= d_loss <= bracket[1]
    assert 0.075 < d_loss < 0.125
    assert len(ds) == len(profile) == 17
    assert profile.max() == profile[np.argmax(profile)]
    # past the optimum the integrated information genuinely sinks
    assert profile[-1] < profile.max()


def test_d_loss_boundary_maximizer():
    # scanning only the decreasing side pins the maximizer at the endpoint
    d_loss, bracket, _ = detect_d_loss(0.2, d_range=(0.15, 0.4), d_points=6,
                                       j_points=41)
    assert d_loss == 0.15
    assert bracket[0] == 0.15


def test_d_loss_flat_profile():
    # a sliver around the optimum varies quadratically: below the 1% gate
    with pytest.raises(FlatProfile):
        detect_d_loss(0.2, d_range=(0.105, 0.109), d_points=3, j_points=21)


def test_d_loss_benchmark_call_makes_one_profile_batch_and_six_refinements(
        monkeypatch):
    calls = []
    integrated_h = features_mod._integrated_h

    def counting(gamma, ds, *args):
        calls.append(np.asarray(ds, dtype=float).size)
        return integrated_h(gamma, ds, *args)

    monkeypatch.setattr(features_mod, "_integrated_h", counting)
    d_loss, bracket, _ = detect_d_loss(0.7, (0.0, 0.3))
    assert calls == [17] + [1] * 6
    assert bracket == (0.20625, 0.24375)
    assert abs(d_loss - 0.2343344485066047) <= 1e-4


def test_d_loss_profile_batch_matches_per_d_curves():
    ds = np.array([0.0, 0.13, 0.3])
    js = np.linspace(1.2, 2.0, 21)
    per_d = [np.trapezoid(_h_curve(js, 0.7, D, DEFAULT_QUAD), js) for D in ds]
    batch = _integrated_h(0.7, ds, 21, DEFAULT_QUAD)
    assert batch.tolist() == per_d  # bit for bit


@pytest.mark.parametrize("kwargs", [
    dict(d_range=(0.3, 0.0)),
    dict(d_range=(0.1, 0.1)),
    dict(d_range=(0.0, math.nan)),
    dict(d_range=(-math.inf, 0.3)),
    dict(d_points=2),
    dict(j_points=1),
    dict(d_points=3.5),
    dict(d_points=17.0),
    dict(j_points=2.5),
], ids=["inverted", "zero-width", "nan", "infinite", "d_points", "j_points",
        "fractional-d_points", "float-d_points", "fractional-j_points"])
def test_d_loss_rejects_bad_grid(kwargs):
    with pytest.raises(ValueError):
        detect_d_loss(0.2, **kwargs)


# ------------------------------------------ replacements against scipy

def scipy_has_peak(x, prominence):
    return bool(find_peaks(x, prominence=prominence)[0].size)


@pytest.fixture(scope="module")
def benchmark_curves():
    """The 19 detection-window curves of the benchmark's features call."""
    curves = []

    def recording(gamma, D, points, quad):
        js, hs = default_curve(gamma, D, points, quad)
        curves.append((js, hs))
        return js, hs

    detect_features(0.2, (0.1, 0.2, 0.3), d_scan=(0.0, 0.3),
                    sampler=recording)
    assert len(curves) == 19
    return curves


def test_has_peak_matches_find_peaks_on_detection_curves(benchmark_curves):
    tested = 0
    for js, hs in benchmark_curves:
        for step in (1, 2):  # full curve and its even points
            j, h = js[::step], hs[::step]
            d1 = np.gradient(np.log(h), j)
            span = float(d1.max() - d1.min())
            for x, bar in ((h, PEAK_PROMINENCE * float(h.max())),
                           (d1, SLOPE_PROMINENCE * span),
                           (-d1, SLOPE_PROMINENCE * span)):
                assert _has_peak(x, bar) == scipy_has_peak(x, bar)
                # and exactly at, and just above, each peak's prominence
                for p in find_peaks(x, prominence=0.0)[1]["prominences"]:
                    for q in (p, np.nextafter(p, np.inf)):
                        assert _has_peak(x, q) == scipy_has_peak(x, q)
                        tested += 1
    assert tested > 0


# Small integer levels make plateaus, ties between peaks, peaks against
# the ends and constant curves common.
levels = st.lists(st.integers(0, 4), min_size=0, max_size=30)


@settings(max_examples=300, deadline=None)
@given(levels, st.floats(0.0, 5.0), st.floats(1e-3, 1e3))
@example([2, 2, 2, 2], 0.0, 1.0)
@example([0, 3, 3, 1, 3, 3, 0], 3.0, 1.0)
@example([3, 1, 2, 1, 3], 1.0, 1.0)
@example([1, 3, 3], 0.0, 1.0)
@example([3, 3, 1], 0.0, 1.0)
def test_has_peak_matches_find_peaks_on_random_curves(xs, prominence, scale):
    x = scale * np.array(xs, dtype=float)
    p = scale * prominence
    assert _has_peak(x, p) == scipy_has_peak(x, p)
    for q in find_peaks(x, prominence=0.0)[1]["prominences"]:
        assert _has_peak(x, q) == scipy_has_peak(x, q)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=0, max_size=40),
       st.floats(0.0, 1e3))
def test_has_peak_matches_find_peaks_on_random_floats(xs, prominence):
    x = np.array(xs, dtype=float)
    assert _has_peak(x, prominence) == scipy_has_peak(x, prominence)


def scipy_bounded_max(f, lo, hi):
    res = minimize_scalar(lambda d: -f(d), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-4})
    return res.x, res.nfev


def counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return g, calls


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: -(x - 0.3) ** 2, 0.0, 1.0),
    (math.sin, 0.0, math.pi),
    (lambda x: x * math.exp(-x), 0.0, 3.0),
    (lambda x: -(x - 0.1) ** 4 + 0.01 * x, -1.0, 2.0),
    (lambda x: x, 0.0, 1.0),             # maximizer on the upper bound
    (lambda x: -math.cosh(x - 1.7), 1.7, 2.7),   # ... on the lower bound
], ids=["quadratic", "sine", "xexp", "quartic", "rising", "at-lower-bound"])
def test_bounded_max_matches_scipy(f, lo, hi):
    g, calls = counted(f)
    x = _bounded_max(g, lo, hi, xatol=1e-4)
    ref, nfev = scipy_bounded_max(f, lo, hi)
    assert abs(x - ref) <= 1e-4
    assert lo <= x <= hi
    assert len(calls) == nfev


def test_bounded_max_matches_scipy_on_d_loss_profile():
    def f(d):
        return float(_integrated_h(0.7, [d], 81, DEFAULT_QUAD)[0])

    g, calls = counted(f)
    x = _bounded_max(g, 0.20625, 0.24375, xatol=1e-4)
    ref, nfev = scipy_bounded_max(f, 0.20625, 0.24375)
    assert abs(x - ref) <= 1e-4
    assert len(calls) == nfev == 6
