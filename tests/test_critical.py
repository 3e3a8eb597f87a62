"""Quadrature near the critical couplings |J| = 1: the graded start mesh,
its work counts, an mpmath oracle and the degenerate edges."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dmchain.quadrature as quad_mod
from dmchain.chain import (PARAM_TAGS, ChainParams, _LADDER_FLOOR, _MAX_RUNGS,
                           _DEPTH_BOUNDS, _START_TABLE, _start_mesh,
                           chain_point, chain_points)
from dmchain.quadrature import (DEFAULT_QUAD, NodeTable, QuadratureConfig,
                                QuadratureFailure, integrate_points)

from _oracles import integrand_rows, start_mesh

# mpmath.quad at 30 digits (tests/_oracles.py critical_integrals) at
# ||J| - 1| in {1e-2, 1e-4, 1e-6} on both sides of both critical points,
# gamma in {0.2, 0.7, 1} and D in {0, 0.3}.  Each row: J, gamma, D, then
# mz, even, odd and their J derivatives.
ORACLE = json.loads((Path(__file__).parent / "critical_oracle.json").read_text())


def integrals(pts):
    """The integrals of the oracle's rows, from a ChainPoints with ("J",)."""
    c, d = pts.corr, pts.dcorr["J"]
    return np.array([c.mz, 0.5 * (c.gxx + c.gyy), 0.5 * (c.gyy - c.gxx),
                     d.mz, 0.5 * (d.gxx + d.gyy), 0.5 * (d.gyy - d.gxx)])


def within_tolerance(got, ref, quad=DEFAULT_QUAD):
    tol = np.maximum(quad.abs_tol, quad.rel_tol * np.abs(ref))
    return np.abs(got - ref) <= tol


# ----------------------------------------------------------- start mesh

def start_panels(J, D, max_subdivisions):
    """The start mesh as ``(lo, hi, counts)``: the bounds of the node-table
    rows that ``_start_mesh`` hands out, and their counts per point."""
    panels, counts = _start_mesh(J, D, max_subdivisions)
    return _START_TABLE.lo[panels], _START_TABLE.hi[panels], counts


@pytest.mark.parametrize("J", [0.0, 0.5, -0.9, 0.99, -0.9999, 1.0, -1.0,
                               1.0 + 1e-3, -3.0, 1.0 - 1e-12])
def test_start_mesh_partitions_the_interval(J):
    # D = 0 gives the coarse tail wherever |J| < 1, D = 2 nowhere here
    for D in (0.0, 0.3, -2.0):
        lo, hi, counts = start_panels(np.array([J]), D,
                                      DEFAULT_QUAD.max_subdivisions)
        assert counts[0] == lo.size == hi.size
        order = np.argsort(lo)
        assert lo[order][0] == 0.0 and hi[order][-1] == math.pi
        assert np.array_equal(lo[order][1:], hi[order][:-1])


def rung_points():
    """J at every end and ladder depth, within three ulps either side of
    every rung boundary ||J| - 1| = (pi/8) 2^-(k + 1/2), and at +-1,
    +-(1 +- 1e-5) and 0."""
    rung = math.pi / 8
    near = np.concatenate([rung * 2.0 ** -np.arange(16),
                           rung * 2.0 ** -(np.arange(-1, 17) + 0.5), [1e-5]])
    J = np.concatenate([1.0 - near, 1.0 + near, [1.0, 0.0]])
    J = np.concatenate([J, -J])
    return np.concatenate([J + k * np.spacing(J) for k in range(-3, 4)])


def coarse_edge(J):
    """Points (|J|, D) at the edge |J| (1 + 2|D|) = 1 of the coarse tail,
    for the 0.01 < |J| < 1 among J: the D of the edge, the floats either
    side of it, and a D well inside and one well outside."""
    J = np.abs(J[(np.abs(J) < 1.0) & (np.abs(J) > 0.01)])
    edge = 0.5 * (1.0 / J - 1.0)
    return np.tile(J, 5), np.concatenate(
        [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf),
         0.5 * edge, 2.0 * edge + 1.0])


@pytest.mark.parametrize("max_subdivisions", range(8, 24))
def test_start_mesh_equals_the_padded_table_oracle(max_subdivisions):
    J = rung_points()
    # both tails at every ladder depth and end, and the edge between them
    edge_J, edge_D = coarse_edge(J)
    D = np.concatenate([np.zeros(J.size), np.full(J.size, 10.0),
                        edge_D, -edge_D])
    J = np.concatenate([J, J, edge_J, -edge_J])
    for got, want in zip(start_panels(J, D, max_subdivisions),
                         start_mesh(J, D, max_subdivisions)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    # a one-point family, as chain_point starts it, gets the same rows
    for j, d in zip(J[::7], D[::7]):
        for got, want in zip(start_panels(np.array([j]), np.array([d]),
                                          max_subdivisions),
                             start_mesh(j, d, max_subdivisions)):
            assert np.array_equal(got, want)


def near_breaks():
    """J = +-1 -+ b for every depth bound b, where a start row changes, the
    two floats either side of each, and J = +-0, +-1 and +-1e99."""
    bounds = np.array(_DEPTH_BOUNDS)
    breaks = np.concatenate([1.0 - bounds, 1.0 + bounds, bounds - 1.0,
                             -1.0 - bounds])
    J = [breaks]
    for toward in (-np.inf, np.inf):
        step = breaks
        for _ in range(2):
            step = np.nextafter(step, toward)
            J.append(step)
    J.append([0.0, -0.0, 1.0, -1.0, 1e99, -1e99])
    return np.concatenate(J).tolist()


@pytest.mark.parametrize("max_subdivisions",
                         [*range(8, 8 + _MAX_RUNGS + 1), 4096])
def test_one_point_start_row_equals_the_family_search(max_subdivisions):
    # a float's row comes from bisect, an array's from np.searchsorted:
    # the same panels and count, as the same arrays; and both take the
    # tail from the same float test
    J = near_breaks()
    edge_J, edge_D = coarse_edge(np.array(J))
    D = [0.0] * len(J) + [-0.5] * len(J) + edge_D.tolist()
    J = J + J + edge_J.tolist()
    for j, d in zip(J, D):
        panels, counts = _start_mesh(j, d, max_subdivisions)
        want_panels, want_counts = _start_mesh(np.array([j]), np.array([d]),
                                               max_subdivisions)
        assert panels.dtype == want_panels.dtype, (j, d)
        assert counts.dtype == want_counts.dtype, (j, d)
        assert np.array_equal(panels, want_panels), (j, d)
        assert np.array_equal(counts, want_counts), (j, d)
        # shared by every pass, so nothing may write to them
        assert not (panels.flags.writeable or counts.flags.writeable)


def test_node_table_rows_are_the_distinct_start_panels():
    # each row is one of the 72 distinct panels of the start meshes, both
    # tails (D = 0 and D = 10 at |J| < 1) included
    lo, hi = _START_TABLE.lo, _START_TABLE.hi
    assert lo.size == len(set(zip(lo.tolist(), hi.tolist()))) == 72
    J = rung_points()
    rows, _ = _start_mesh(np.concatenate([J, J]),
                          np.repeat([0.0, 10.0], J.size),
                          DEFAULT_QUAD.max_subdivisions)
    used = np.zeros(lo.size, dtype=bool)
    used[rows] = True
    assert used.all()


def test_ladder_reaches_the_rung_nearest_the_distance_to_criticality():
    eps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    for sign in (1.0, -1.0):
        lo, hi, counts = start_panels(sign * (1.0 - eps), 0.0,
                                      DEFAULT_QUAD.max_subdivisions)
        # each point's innermost panel comes first and touches the critical end
        first = np.r_[0, np.cumsum(counts)[:-1]]
        if sign > 0:
            assert np.all(lo[first] == 0.0)
            width = hi[first]
        else:
            assert np.all(hi[first] == math.pi)
            width = math.pi - lo[first]
        assert np.all((width > eps / 2 ** 0.5) & (width < eps * 2 ** 0.5))
    # far from criticality, the uniform start alone, or the 5 panels of the
    # coarse tail where u cannot vanish
    assert _start_mesh(np.array([0.3, -2.5]), 2.0, 4096)[1].tolist() == [8, 8]
    assert _start_mesh(np.array([0.3, -2.5]), 0.5, 4096)[1].tolist() == [5, 8]


def test_ladder_stops_at_its_floor_and_within_the_budget():
    J = np.array([1.0, -1.0, 1.0 - 1e-9])
    lo, hi, counts = start_panels(J, 0.0, DEFAULT_QUAD.max_subdivisions)
    widths = hi - lo
    assert widths.min() >= _LADDER_FLOOR
    assert widths.min() < 2.0 * _LADDER_FLOOR
    # the rungs count against max_subdivisions
    assert _start_mesh(J, 0.1, 8)[1].tolist() == [8, 8, 8]
    assert _start_mesh(J, 0.1, 11)[1].tolist() == [11, 11, 11]
    # the coarse tail keeps the ladder and its cap (|J| < 1 at D = 0)
    assert _start_mesh(J, 0.0, 8)[1].tolist() == [8, 8, 5]
    assert _start_mesh(J, 0.0, 11)[1].tolist() == [11, 11, 8]
    assert np.all(counts <= DEFAULT_QUAD.max_subdivisions)


# ------------------------------------------------------------ coarse tail

def bits(pts, k=None):
    """The bits of every value of a ChainPoints, of its point k if given."""
    fields = (tuple(pts.corr) + tuple(pts.state)
              + sum((tuple(pts.dcorr[t]) + tuple(pts.dstate[t])
                     for t in sorted(pts.dcorr)), ()))
    values = np.array(fields if k is None else [f[k] for f in fields])
    return values.view(np.uint64).tolist()


def ulps_from(x, n):
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


@settings(max_examples=30, deadline=None)
@given(J=st.floats(0.02, 0.98), sign_J=st.sampled_from([1.0, -1.0]),
       sign_D=st.sampled_from([1.0, -1.0]), step=st.integers(-4, 4),
       gamma=st.floats(0.05, 1.0), tags=st.sampled_from([(), PARAM_TAGS]))
@example(J=0.5, sign_J=-1.0, sign_D=1.0, step=0, gamma=0.05, tags=PARAM_TAGS)
@example(J=0.5, sign_J=1.0, sign_D=-1.0, step=-1, gamma=0.2, tags=("J",))
@example(J=0.9, sign_J=-1.0, sign_D=-1.0, step=1, gamma=1.0, tags=())
def test_points_at_the_coarse_tail_edge_get_the_same_bits_everywhere(
        J, sign_J, sign_D, step, gamma, tags):
    # D within a few ulps of |J| (1 + 2|D|) = 1, where the start tail
    # changes: chain_point and chain_points take the same tail, and a
    # point's bits do not depend on the points beside it
    D = sign_D * ulps_from(0.5 * (1.0 / J - 1.0), step)
    J *= sign_J
    alone = bits(chain_point(ChainParams(J, gamma, D), tags))
    assert bits(chain_points([J], gamma, D, tags), 0) == alone
    family = chain_points([0.3, J, -J, J, 1.5], [0.7, gamma, gamma, gamma, 0.7],
                          [0.1, D, D, -D, 0.1], tags)
    assert bits(family, 1) == alone
    assert bits(family, 2) == bits(chain_point(ChainParams(-J, gamma, D), tags))
    assert bits(family, 3) == bits(chain_point(ChainParams(J, gamma, -D), tags))


def fine_start_integrals(J, gamma, D, tags, quad):
    """The integrals of the oracle's integrand stack at the points (J,
    gamma, D) from the fine start of every point, the uniform tail."""
    lo, hi, counts = start_mesh(J, D, quad.max_subdivisions, coarse=False)
    table = NodeTable(lo, hi, lambda x: x[None])
    J, gamma, D = (np.asarray(a, dtype=float) for a in (J, gamma, D))

    def f(rows, owner):
        node = owner.repeat(rows.shape[2])
        return integrand_rows(J[node], gamma[node], D[node], tags,
                              rows[0].ravel()).reshape(-1, *rows.shape[1:])

    vals, _, failures = integrate_points(f, table, np.arange(lo.size),
                                         counts, quad)
    assert failures == []
    return vals


def test_coarse_tail_meets_the_tolerance_against_the_fine_start():
    # Points that get the coarse tail, most of them just inside its edge
    # |J| (1 + 2|D|) = 1: gamma down to 0.05, both signs of J and D, and
    # sign(J) sign(D) < 0, where |u| is smallest inside the interval, at
    # phi = atan(2|D|) (J > 0) or pi - atan(2|D|) (J < 0).  The values of
    # the fine start at 1e-13 are the reference.
    grid = [(sj * margin / (1.0 + 2.0 * abs(d)), g, sd * d)
            for margin in (0.5, 0.9, 0.999, 1.0 - 1e-7)
            for g in (0.05, 0.2, 1.0)
            for d in (0.0, 0.05, 0.3, 2.0, 20.0)
            for sj in (1.0, -1.0) for sd in (1.0, -1.0)]
    J, gamma, D = (np.array(a) for a in zip(*grid))
    assert (np.abs(J) * (1.0 + 2.0 * np.abs(D)) < 1.0).all()
    ref = fine_start_integrals(J, gamma, D, PARAM_TAGS,
                               QuadratureConfig(1e-13, 1e-13, 4096))
    # the library starts each of them 3 panels lighter than the reference
    fine = start_mesh(J, D, 4096, coarse=False)[2]
    assert np.array_equal(_start_mesh(J, D, 4096)[1], fine - 3)
    for quad in (DEFAULT_QUAD, QuadratureConfig(1e-8, 1e-8, 4096)):
        pts = chain_points(J, gamma, D, PARAM_TAGS, quad)
        got = np.array([pts.corr.mz, 0.5 * (pts.corr.gxx + pts.corr.gyy),
                        0.5 * (pts.corr.gyy - pts.corr.gxx)]
                       + sum(([d.mz, 0.5 * (d.gxx + d.gyy),
                               0.5 * (d.gyy - d.gxx)]
                              for d in (pts.dcorr[t] for t in PARAM_TAGS)), []))
        ok = within_tolerance(got, ref, quad)
        assert ok.all(), grid[int(np.flatnonzero(~ok.all(axis=0))[0])]


def test_graded_start_converges_near_criticality_in_few_rule_calls(monkeypatch):
    calls = []
    real = quad_mod._panel_rule

    def counting(f, panels, *table):
        calls.append(panels.size)
        return real(f, panels, *table)

    monkeypatch.setattr(quad_mod, "_panel_rule", counting)
    for J in (1.0 - 1e-4, -(1.0 - 1e-4)):
        calls.clear()
        chain_point(ChainParams(J, 0.7, 0.1), ("J",))
        assert len(calls) <= 2
    # with a budget of 8 panels the start is the uniform mesh alone, and
    # the point no longer converges
    calls.clear()
    with pytest.raises(QuadratureFailure):
        chain_point(ChainParams(1.0 - 1e-4, 0.7, 0.1), ("J",),
                    QuadratureConfig(1e-10, 1e-10, 8))
    assert calls == [8]


# --------------------------------------------------------- mpmath oracle

def test_chain_point_meets_its_tolerance_against_mpmath():
    for row in ORACLE["points"]:
        got = integrals(chain_point(ChainParams(*row[:3]), ("J",)))
        assert within_tolerance(got, np.array(row[3:])).all(), row[:3]


def test_chain_points_meet_their_tolerance_against_mpmath():
    table = np.array(ORACLE["points"])
    got = integrals(chain_points(table[:, 0], table[:, 1], table[:, 2], ("J",)))
    ok = within_tolerance(got, table[:, 3:].T)
    assert ok.all(), table[~ok.all(axis=0), :3]


@pytest.mark.parametrize("params", [(1.000001, 0.2, 0.3), (-0.999999, 0.2, 0.3)])
def test_oracle_table_is_reproduced_by_mpmath(params):
    pytest.importorskip("mpmath")
    from _oracles import critical_integrals

    point = next(p for p in ORACLE["points"] if tuple(p[:3]) == params)
    assert np.allclose(critical_integrals(*point[:3], dps=ORACLE["dps"]),
                       point[3:], rtol=1e-15, atol=0.0)


# ------------------------------------------------------- degenerate edges

@pytest.mark.parametrize("J", [1.0, -1.0])
@pytest.mark.parametrize("gamma", [0.0, 1e-300, 1e-12, 1e-6])
@pytest.mark.parametrize("D", [0.0, 0.3])
def test_exactly_critical_point_is_finite_and_quiet(J, gamma, D):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        corr = chain_point(ChainParams(J, gamma, D), ()).corr
    assert all(math.isfinite(v) for v in (corr.mz, corr.gxx, corr.gyy, corr.gzz))


def test_small_anisotropy_dip_at_criticality_is_resolved():
    # At J = 1, D = 0 the magnetization dips to 1 - 2 gamma / pi + O(gamma^2)
    # within about gamma of phi = 0; the uniform start missed it.
    mz = chain_point(ChainParams(1.0, 1e-6, 0.0)).corr.mz
    assert abs(mz - (1.0 - 2e-6 / math.pi)) < 1e-10
