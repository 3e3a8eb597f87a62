"""Adaptive panel integrator against closed forms."""

import numpy as np
import pytest

from dmchain.quadrature import (DEFAULT_QUAD, NodeTable, QuadratureConfig,
                                QuadratureFailure, integrate_points)


def nodes(x):
    """Node-table factors of a plain integrand: the nodes themselves."""
    return x[None]


def uniform(a, b, panels=8):
    """The node table of a uniform mesh on [a, b], and one point's start
    panels (its rows) and counts."""
    edges = np.linspace(a, b, panels + 1)
    return NodeTable(edges[:-1], edges[1:], nodes), np.arange(panels), [panels]


def integrate_stack(f, a, b, config=DEFAULT_QUAD):
    """A stack f(x) of shape (k, panels, 15) integrated as a one-point
    family; raises the point's failure if it has one."""
    vals, errs, failures = integrate_points(lambda rows, owner: f(rows[0]),
                                            *uniform(a, b), config)
    for _, exc in failures:
        raise exc
    return vals[:, 0], errs[:, 0]


def integrate(f, a, b, config=DEFAULT_QUAD):
    """One integrand as a one-row stack."""
    vals, errs = integrate_stack(lambda x: f(x)[None], a, b, config)
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


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_integral_that_is_not_finite_fails_at_once(value):
    calls = []

    def f(x):
        calls.append(x.size)
        return np.full(x.shape, value)

    # inf times a zero Gauss weight is NaN
    with np.errstate(invalid="ignore"), pytest.raises(
            QuadratureFailure, match="with 8 panels; the integral is not finite"):
        integrate(f, 0.0, 1.0)
    assert len(calls) == 1


def test_start_panels_count_against_the_budget():
    # a point that starts over budget is refused, even if it would converge
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10, max_subdivisions=16)
    with pytest.raises(ValueError, match="max_subdivisions"):
        integrate_points(lambda rows, owner: np.cos(rows),
                         *uniform(0.0, 2.0, panels=20), cfg)
    val, _ = integrate(np.cos, 0.0, 2.0, cfg)
    assert val == pytest.approx(np.sin(2.0), rel=1e-12)


def test_vectorized_rows_match_scalar():
    vals, _ = integrate_stack(
        lambda x: np.stack([np.sin(x), np.cos(x), x**3]), 0.0, 1.2)
    singles = [integrate(np.sin, 0.0, 1.2)[0], integrate(np.cos, 0.0, 1.2)[0],
               integrate(lambda x: x**3, 0.0, 1.2)[0]]
    assert np.allclose(vals, singles, rtol=1e-12, atol=1e-13)


def test_node_table_rows_are_the_factors_at_the_kronrod_nodes():
    table = NodeTable([0.0, 1.0], [1.0, 3.0], lambda x: np.stack([x, x * x]))
    assert table.rows.shape == (2, 2, 15)
    x = table.rows[0]
    # nodes symmetric about each panel's midpoint, strictly inside it
    assert np.allclose(x + x[:, ::-1], [[1.0], [4.0]], rtol=0, atol=1e-15)
    assert np.all((x > table.lo[:, None]) & (x < table.hi[:, None]))
    assert np.array_equal(table.rows[1], x * x)
    with pytest.raises(ValueError, match="hi > lo"):
        NodeTable([0.0, 1.0], [1.0, 1.0], nodes)


def test_default_config_frozen():
    with pytest.raises(Exception):
        DEFAULT_QUAD.abs_tol = 1.0


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=2)
    for budget in (20.5, 20.0, "20", None):
        with pytest.raises(ValueError, match="max_subdivisions must be an "
                                             "integer"):
            QuadratureConfig(1e-10, 1e-10, budget)


def test_numpy_integer_budget_is_the_python_budget():
    # both chain entry points take a numpy integer as its int
    from dmchain.chain import ChainParams, chain_point, chain_points

    as_int = QuadratureConfig(1e-10, 1e-10, 20)
    as_numpy = QuadratureConfig(1e-10, 1e-10, np.int64(20))
    assert as_numpy == as_int
    one = chain_point(ChainParams(0.999, 0.7, 0.1), ("J",), as_numpy)
    family = chain_points([0.5, 0.999], 0.7, 0.1, ("J",), as_numpy)
    assert one == chain_point(ChainParams(0.999, 0.7, 0.1), ("J",), as_int)
    assert family.dstate["J"].c[1] == one.dstate["J"].c
