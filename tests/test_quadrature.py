"""Adaptive panel integrator against closed forms."""

import numpy as np
import pytest

from dmchain.quadrature import (DEFAULT_QUAD, QuadratureConfig,
                                QuadratureFailure, integrate_many)


def integrate(f, a, b, config=DEFAULT_QUAD):
    """One integrand as a one-row integrate_many stack."""
    vals, errs = integrate_many(lambda x: f(x)[None, :], a, b, config)
    return vals[0], errs[0]


def test_polynomial_exact():
    # K15 is exact for low-degree polynomials; no subdivision needed
    val, err = integrate(lambda x: 3 * x**2, 0.0, 2.0)
    assert abs(val - 8.0) < 1e-13
    assert err < 1e-12


def test_oscillatory_known_value():
    val, _ = integrate(np.sin, 0.0, np.pi)
    assert abs(val - 2.0) < 1e-12


def test_sharp_feature():
    # narrow Lorentzian forces deep subdivision
    val, _ = integrate(lambda x: 1e-4 / (x**2 + 1e-8), -1.0, 1.0)
    exact = 2 * np.arctan(1e4)
    assert abs(val - exact) / exact < 1e-9


def test_halved_tolerance_tightens():
    f = lambda x: np.exp(-x) * np.cos(17 * x)
    ref, _ = integrate(f, 0.0, np.pi, QuadratureConfig(1e-14, 1e-14, 8192))
    loose, _ = integrate(f, 0.0, np.pi, QuadratureConfig(1e-6, 1e-6, 4096))
    tight, _ = integrate(f, 0.0, np.pi, QuadratureConfig(5e-7, 5e-7, 4096))
    assert abs(tight - ref) <= abs(loose - ref) + 1e-15


def test_error_estimate_brackets_truth():
    f = lambda x: np.exp(-x) * np.cos(17 * x)
    ref, _ = integrate(f, 0.0, np.pi, QuadratureConfig(1e-14, 1e-14, 8192))
    val, err = integrate(f, 0.0, np.pi, QuadratureConfig(1e-8, 1e-8, 4096))
    assert abs(val - ref) <= 10 * max(err, 1e-15)


def test_subdivision_exhaustion_raises():
    cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=8)
    with pytest.raises(QuadratureFailure):
        integrate(lambda x: 1e-6 / (x**2 + 1e-12), -1.0, 1.0, cfg)


def test_vectorized_rows_match_scalar():
    vals, _ = integrate_many(
        lambda x: np.vstack([np.sin(x), np.cos(x), x**3]), 0.0, 1.2)
    singles = [integrate(np.sin, 0.0, 1.2)[0], integrate(np.cos, 0.0, 1.2)[0],
               integrate(lambda x: x**3, 0.0, 1.2)[0]]
    assert np.allclose(vals, singles, rtol=1e-12, atol=1e-13)


def test_default_config_frozen():
    with pytest.raises(Exception):
        DEFAULT_QUAD.abs_tol = 1.0


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=2)
