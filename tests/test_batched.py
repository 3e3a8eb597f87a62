"""Batched evaluation of parameter families against the per-point path."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dmchain.chain as chain_mod
import dmchain.quadrature as quad_mod
from dmchain.chain import (PARAM_TAGS, ChainParams, CriticalPoint,
                           PositivityViolation, chain_outcome, chain_point,
                           chain_points)
from dmchain.features import WINDOW
from dmchain.fisher import block_qfi, qfi_xstate
from dmchain.quadrature import (DEFAULT_QUAD, NodeTable, QuadratureConfig,
                                QuadratureFailure, integrate_points)

from _oracles import integrand_rows


def batched_h(js, gamma, D):
    return block_qfi(chain_points(js, gamma, D, ("J",)))[0][0, 0]


def scalar_h(js, gamma, D):
    return np.array([qfi_xstate(ChainParams(float(j), gamma, D), "J") for j in js])


# ------------------------------------------------------------ quadrature

def nodes(x):
    """Node-table factors of a plain integrand: the nodes themselves."""
    return x[None]


def start(n, a, b, factors=nodes):
    """The node table of 8 uniform panels on [a, b], and the start panels
    (its rows) and counts of n points that each start on all of them."""
    edges = np.linspace(a, b, 9)
    return (NodeTable(edges[:-1], edges[1:], factors),
            np.tile(np.arange(8), n), np.full(n, 8))


def lorentzians(widths):
    """Peaks at 0.3 whose sharpness and size both vary by point."""
    widths = np.asarray(widths)

    def f(rows, owner):
        x, a = rows[0], widths[owner][:, None]
        return np.stack([a * a / (a * a + (x - 0.3) ** 2), np.cos(x) * a])

    def exact(a):
        return a * (np.arctan((2.0 - 0.3) / a) - np.arctan((0.0 - 0.3) / a))

    return f, exact


def test_points_meet_their_own_tolerance():
    widths = np.geomspace(1e-4, 1.0, 13)
    f, exact = lorentzians(widths)
    config = QuadratureConfig(1e-12, 1e-10, 4096)
    vals, errs, _ = integrate_points(f, *start(widths.size, 0.0, 2.0), config)
    assert vals.shape == errs.shape == (2, widths.size)
    assert np.all(errs <= np.maximum(config.abs_tol, config.rel_tol * np.abs(vals)))
    assert np.allclose(vals[0], exact(widths), rtol=1e-9, atol=0.0)
    assert np.allclose(vals[1], widths * (np.sin(2.0) - np.sin(0.0)),
                       rtol=1e-12, atol=1e-15)


def test_point_values_do_not_depend_on_the_family():
    widths = np.geomspace(1e-4, 1.0, 13)
    f, _ = lorentzians(widths)
    relative = QuadratureConfig(1e-300, 1e-10, 4096)  # no absolute floor
    vals, errs, _ = integrate_points(f, *start(widths.size, 0.0, 2.0), relative)
    for subset in ([0], [5], [12], [2, 3, 4], [11, 0, 7]):
        g, _ = lorentzians(widths[subset])
        v, e, _ = integrate_points(g, *start(len(subset), 0.0, 2.0), relative)
        assert np.array_equal(v, vals[:, subset])
        assert np.array_equal(e, errs[:, subset])


def test_points_agree_with_single_stack_engine():
    # each point of the family against that point integrated alone
    widths = np.geomspace(1e-4, 1.0, 7)
    f, _ = lorentzians(widths)
    vals, errs, _ = integrate_points(f, *start(widths.size, 0.0, 2.0))
    for i in range(widths.size):
        ref, ref_err, _ = integrate_points(
            lambda rows, owner: f(rows, np.full(owner.size, i)),
            *start(1, 0.0, 2.0))
        assert np.array_equal(vals[:, i], ref[:, 0])
        assert np.array_equal(errs[:, i], ref_err[:, 0])


def test_exhausted_point_fails_the_family():
    widths = np.array([1.0, 1e-6, 0.5])
    f, _ = lorentzians(widths)
    evaluated = np.zeros(widths.size, dtype=int)

    def recording(rows, owner):
        np.add.at(evaluated, owner, rows.shape[2])
        return f(rows, owner)

    config = QuadratureConfig(1e-10, 1e-10, 16)
    table, first, counts = start(widths.size, 0.0, 2.0)
    vals, errs, failures = integrate_points(recording, table, first, counts,
                                            config)
    # every split adds one panel and evaluates its two halves:
    # nodes = 15 (start + 2 splits) and panels = start + splits
    splits, rest = np.divmod(evaluated // 15 - counts, 2)
    assert np.all(evaluated % 15 == 0) and np.all(rest == 0)
    panels = counts + splits
    assert panels.max() <= config.max_subdivisions
    # point 1 is the only failure, and stops where it ran out of budget
    assert [i for i, _ in failures] == [1]
    assert isinstance(failures[0][1], QuadratureFailure)
    assert panels[1] == 16
    assert str(failures[0][1]).startswith(f"no convergence with {panels[1]} "
                                          "panels; worst error exceeds")
    # the easy points get the bits they get alone
    for i in (0, 2):
        g, _ = lorentzians(widths[[i]])
        v, e, alone = integrate_points(g, *start(1, 0.0, 2.0), config)
        assert alone == []
        assert np.array_equal(v[:, 0], vals[:, i])
        assert np.array_equal(e[:, 0], errs[:, i])
    # a family whose points all get stuck, at different passes, reports
    # every one of them in order
    g, _ = lorentzians([1e-3, 1e-6, 1e-4, 1e-5])
    _, _, failures = integrate_points(g, *start(4, 0.0, 2.0), config)
    assert [i for i, _ in failures] == [0, 1, 2, 3]
    assert all(isinstance(exc, QuadratureFailure) for _, exc in failures)


def test_empty_family():
    f, _ = lorentzians([])
    vals, errs, failures = integrate_points(f, *start(0, 0.0, 2.0))
    assert vals.shape == errs.shape == (2, 0) and failures == []
    with pytest.raises(ValueError):
        start(1, 2.0, 0.0)
    table, panels, _ = start(2, 0.0, 2.0)
    for counts in ([16, 0], [8, 7], [8, 9]):
        with pytest.raises(ValueError, match="counts must sum"):
            integrate_points(f, table, panels, counts)


def test_halves_are_tabulated_once_per_pass():
    # identical points split the same panels: their halves are tabulated
    # once, as for one point, and the table keeps only its own rows
    tabulated = []

    def factors(x):
        tabulated.append(x.shape[0])
        return x[None]

    f, _ = lorentzians(np.full(13, 1e-3))
    table, panels, counts = start(13, 0.0, 2.0, factors)
    family, _, _ = integrate_points(f, table, panels, counts)
    halves = sum(tabulated[1:])
    assert halves > 0 and table.lo.size == table.rows.shape[1] == 8
    g, _ = lorentzians([1e-3])
    tabulated.clear()
    alone, _, _ = integrate_points(g, table, *start(1, 0.0, 2.0)[1:])
    assert sum(tabulated) == halves
    assert np.array_equal(family, np.repeat(alone, 13, axis=1))


def test_row_split_again_at_a_later_step_is_not_tabulated_again():
    # the narrow peak splits a row that the wide one splits a step later:
    # its halves are the pass's rows already, and each is tabulated once
    tabulated = []

    def factors(x):
        tabulated.extend(map(tuple, x.tolist()))
        return x[None]

    widths, centers = np.array([0.0275, 0.005]), np.array([1.6, 1.85])

    def f(rows, owner):
        x, a = rows[0], widths[owner][:, None]
        return np.stack([a * a / (a * a + (x - centers[owner][:, None]) ** 2),
                         np.cos(x) * a])

    table, panels, counts = start(2, 0.0, 2.0, factors)
    tabulated.clear()
    family = integrate_points(f, table, panels, counts)
    assert len(tabulated) == len(set(tabulated)) == 28
    for i in range(2):
        alone = integrate_points(lambda rows, owner: f(rows, owner + i),
                                 table, *start(1, 0.0, 2.0)[1:])
        assert np.array_equal(alone[0][:, 0], family[0][:, i])


def smooth_wiggle_peak(kinds):
    """Point i integrates cos(x) (kind 0), cos(200 x) (kind 1) or a peak of
    width 0.1 at 0.3 (kind 2), with half of it as a second integrand."""
    kinds = np.asarray(kinds)

    def f(rows, owner):
        x, k = rows[0], kinds[owner][:, None]
        y = np.where(k == 0, np.cos(x), np.where(
            k == 1, np.cos(200.0 * x), 1e-2 / (1e-2 + (x - 0.3) ** 2)))
        return np.stack([y, 0.5 * y])

    return f


def recorded(f, owners):
    """f, appending the sorted points of each rule call to ``owners``."""
    def g(rows, owner):
        owners.append(sorted(set(owner.tolist())))
        return f(rows, owner)

    return g


def assert_each_point_as_alone(f_of, n, config, family):
    """Each point of ``family`` (values, errors, failures) has the bits
    and the failure message of the point integrated alone."""
    vals, errs, failures = family
    failed = dict(failures)
    for i in range(n):
        v, e, alone = integrate_points(f_of(i), *start(1, 0.0, 2.0), config)
        assert np.array_equal(v[:, 0], vals[:, i])
        assert np.array_equal(e[:, 0], errs[:, i])
        assert [str(exc) for _, exc in alone] == (
            [str(failed[i])] if i in failed else [])


def test_pass_converging_on_its_start_panels_builds_no_split_table():
    tabulated = []

    def factors(x):
        tabulated.append(x.shape[0])
        return x[None]

    table, panels, counts = start(1, 0.0, 2.0, factors)
    tabulated.clear()
    owners = []
    integrate_points(recorded(smooth_wiggle_peak([0]), owners), table,
                     panels, counts)
    assert owners == [[0]] and tabulated == []
    # a pass that splits tabulates the halves of what it splits
    integrate_points(smooth_wiggle_peak([2]), table, panels, counts)
    assert tabulated


def test_step_on_which_no_point_converged():
    widths = np.array([0.1, 0.05, 0.02])
    f, _ = lorentzians(widths)
    owners = []
    family = integrate_points(recorded(f, owners),
                              *start(widths.size, 0.0, 2.0))
    # the second rule call refines every point of the family
    assert owners[1] == [0, 1, 2]

    def alone(i):
        return lambda rows, owner: f(rows, np.full(owner.size, i))

    assert_each_point_as_alone(alone, widths.size, DEFAULT_QUAD, family)


def test_step_mixing_converged_stuck_and_splitting_points():
    # at the first step point 0 converges, point 1 would need all 16
    # halves of its 8 panels against a budget of 15 and stops, and points
    # 2 and 3 split the same rows
    kinds = [0, 1, 2, 2]
    config = QuadratureConfig(1e-9, 1e-9, 15)
    tabulated = []

    def factors(x):
        tabulated.append(x.shape[0])
        return x[None]

    table, panels, counts = start(len(kinds), 0.0, 2.0, factors)
    tabulated.clear()
    owners = []
    family = integrate_points(recorded(smooth_wiggle_peak(kinds), owners),
                              table, panels, counts, config)
    assert owners[0] == [0, 1, 2, 3] and owners[1] == [2, 3]
    assert [i for i, _ in family[2]] == [1]
    assert str(family[2][0][1]).startswith("no convergence with 8 panels")
    # the rows that points 2 and 3 split are tabulated once, as for one
    twice = sum(tabulated)
    tabulated.clear()
    integrate_points(smooth_wiggle_peak([2]), table, *start(1, 0.0, 2.0)[1:],
                     config)
    assert twice == sum(tabulated) > 0
    assert_each_point_as_alone(lambda i: smooth_wiggle_peak([kinds[i]]),
                               len(kinds), config, family)


def test_chain_points_meet_their_own_tolerance():
    # the real integrand on the detection window, down to 2e-3 from J = -1
    js = np.linspace(WINDOW[0], WINDOW[1], 561)

    def f(rows, owner):
        return chain_mod._integrand_rows(js[owner][:, None], 0.2, 0.3,
                                         ("J",), rows)

    vals, errs, failures = integrate_points(
        f, chain_mod._START_TABLE,
        *chain_mod._start_mesh(js, DEFAULT_QUAD.max_subdivisions))
    assert failures == []
    assert np.all(errs <= np.maximum(DEFAULT_QUAD.abs_tol,
                                     DEFAULT_QUAD.rel_tol * np.abs(vals)))


# ------------------------------------------------------------ chain layer

def fields_of(pt):
    """Every value of a ChainPoints: correlators, state and derivatives."""
    return (tuple(pt.corr) + tuple(pt.state)
            + sum((tuple(pt.dcorr[t]) + tuple(pt.dstate[t])
                   for t in sorted(pt.dcorr)), ()))


def test_chain_points_match_chain_point():
    # The last two points catch a float and an array rounding one product
    # differently: J ** 3 in the D row, and (1 + mz) ** 2 in the state.
    points = [(-1.998, 0.7, 0.1), (-0.5, 0.7, 0.1), (0.3, 0.7, 0.1),
              (0.999, 0.7, 0.1), (1.5, 0.7, 0.1), (1.45, 0.7, 0.1),
              (-0.9852378297674188, -0.4603264289983997, 0.3631202041893178)]
    # A family passes a shared coupling as a float and a varying one per
    # node: a J curve up to 0.999 that shares gamma and D, over several
    # rule calls; a D axis that shares J and gamma; and a family where all
    # three couplings vary.
    curve = [(j, 0.7, 0.1) for j in np.linspace(-0.9, 0.999, 64)]
    assert (chain_mod._start_mesh(np.array(curve)[:, 0], 4096)[0].size
            > 2 * quad_mod._rule_panels(quad_mod._FIRST_HEIGHT))
    d_axis = [(0.6, 0.7, d) for d in np.linspace(-0.4, 0.4, 9)]
    rng = np.random.default_rng(23)
    varied = list(zip(rng.uniform(-1.9, -1.05, 12), rng.uniform(0.1, 1.0, 12),
                      rng.uniform(-0.4, 0.4, 12)))
    for family in (points, curve, d_axis, varied):
        for tags in ((), ("J",), PARAM_TAGS):
            pts = chain_points(*zip(*family), tags)
            assert set(pts.dcorr) == set(tags)
            values = fields_of(pts)
            for i, p in enumerate(family):
                ref = fields_of(chain_point(ChainParams(*map(float, p)), tags))
                assert all(type(v) is float for v in ref)
                assert [v[i] for v in values] == list(ref)


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


def test_chain_outcome_reports_every_failure_in_order():
    # a refused coupling, a divergence and two points short of budget: the
    # points that succeed keep the bits they get alone
    J = [0.5, -0.9999, 0.3, 1.0, 0.99999, np.nan]
    quad = QuadratureConfig(1e-10, 1e-10, 9)
    points, failures = chain_outcome(J, 0.2, 0.1, ("J",), quad)
    assert [(i, type(exc)) for i, exc in failures] == [
        (1, QuadratureFailure), (3, CriticalPoint), (4, QuadratureFailure),
        (5, ValueError)]
    assert "(J = -0.9999, gamma = 0.2, D = 0.1)" in str(failures[0][1])
    family = fields_of(points)
    for k, j in enumerate((0.5, 0.3)):
        ref = fields_of(chain_point(ChainParams(j, 0.2, 0.1), ("J",), quad))
        assert [v[k] for v in family] == list(ref)
    # chain_points raises the failure of the lowest index
    with pytest.raises(QuadratureFailure, match=r"J = -0\.9999"):
        chain_points(J, 0.2, 0.1, ("J",), quad)
    with pytest.raises(CriticalPoint):
        chain_points(J[2:], 0.2, 0.1, ("J",), quad)


def test_refused_points_are_not_integrated(monkeypatch):
    # refused points stay out of the pass, even at a tolerance that no
    # point reaches: only point 2 is refined, on the panels it gets alone
    evaluated = []
    real = quad_mod._panel_rule

    def spy(f, panels, owner, *table):
        evaluated.append(panels.copy())
        return real(f, panels, owner, *table)

    monkeypatch.setattr(quad_mod, "_panel_rule", spy)
    quad = QuadratureConfig(1e-30, 1e-30, 64)
    _, failures = chain_outcome([np.nan, 1.0, 0.5], 0.2, 0.1, ("J",), quad)
    assert [(i, type(exc)) for i, exc in failures] == [
        (0, ValueError), (1, CriticalPoint), (2, QuadratureFailure)]
    assert "J = 0.5, gamma = 0.2, D = 0.1" in str(failures[2][1])
    family = np.concatenate(evaluated)
    evaluated.clear()
    _, alone = chain_outcome([0.5], 0.2, 0.1, ("J",), quad)
    assert [type(exc) for _, exc in alone] == [QuadratureFailure]
    assert np.array_equal(family, np.concatenate(evaluated))
    # a family with every point refused makes no pass beyond the one call
    # that learns the stack
    evaluated.clear()
    points, failures = chain_outcome([np.nan, 1.0], 0.2, 0.1, ("J",), quad)
    assert [i for i, _ in failures] == [0, 1] and points.corr.mz.size == 0
    assert sum(p.size for p in evaluated) == 0


@pytest.mark.parametrize("J, gamma, D, tags", [
    # the d_loss profile of features: 81 J by 17 D, gamma shared
    (np.tile(np.linspace(1.2, 2.0, 81), 17), 0.7,
     np.repeat(np.linspace(0.0, 0.3, 17), 81), ("J",)),
    # the tallest stack, all three couplings varying
    (np.linspace(-0.99, 0.99, 401), np.linspace(0.1, 0.9, 401),
     np.linspace(-0.3, 0.3, 401), PARAM_TAGS),
])
def test_rule_calls_hold_at_most_the_float_bound(monkeypatch, J, gamma, D,
                                                 tags):
    # every rule call, counted by its stack and nodes and measured by the
    # memory it allocates, stays within the engine's bound
    calls = []
    real = quad_mod._panel_rule

    def spy(f, panels, *rest):
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        est = real(f, panels, *rest)
        peak = tracemalloc.get_traced_memory()[1] - held
        calls.append((est.shape[1], panels.size * 15, peak / 8))
        return est

    monkeypatch.setattr(quad_mod, "_panel_rule", spy)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        chain_points(J, gamma, D, tags)
    finally:
        if not tracing:
            tracemalloc.stop()
    bound = quad_mod._MAX_RULE_FLOATS
    assert len(calls) > 1 and {k for k, _, _ in calls} == {3 + 3 * len(tags)}
    for k, nodes, held in calls:
        assert (k + quad_mod._SCRATCH_ROWS) * nodes <= bound
        assert held <= bound
    # the calls are as large as the bound allows, not capped below it
    k = calls[0][0]
    assert max(n for _, n, _ in calls) == 15 * quad_mod._rule_panels(k)


def test_large_family_is_integrated_in_passes_of_bounded_estimates(
        monkeypatch):
    # the d_loss profile of features starts on 7021 panels of 6 integrands:
    # its points are integrated in passes over consecutive groups, each
    # starting with at most _PASS_FLOATS estimates, with the bits of one pass
    J = np.tile(np.linspace(1.2, 2.0, 81), 17)
    D = np.repeat(np.linspace(0.0, 0.3, 17), 81)
    passes = []
    real = chain_mod.integrate_points

    def spy(f, table, panels, counts, quad):
        passes.append((panels.size, counts.size))
        return real(f, table, panels, counts, quad)

    monkeypatch.setattr(chain_mod, "integrate_points", spy)
    split = fields_of(chain_points(J, 0.7, D, ("J",)))
    assert len(passes) == 2 and sum(n for _, n in passes) == J.size
    assert all(2 * 6 * p <= chain_mod._PASS_FLOATS for p, _ in passes)
    monkeypatch.setattr(chain_mod, "_PASS_FLOATS", 2 * 6 * 7021)
    passes.clear()
    whole = fields_of(chain_points(J, 0.7, D, ("J",)))
    assert len(passes) == 1
    assert all(np.array_equal(a, b) for a, b in zip(split, whole))
    # a pass per point: failures keep their family index and message
    J = [0.5, -0.9999, 0.3, 1.0, 0.99999, np.nan]
    quad = QuadratureConfig(1e-10, 1e-10, 9)
    passes.clear()
    one, one_failures = chain_outcome(J, 0.2, 0.1, ("J",), quad)
    assert len(passes) == 1
    monkeypatch.setattr(chain_mod, "_PASS_FLOATS", 2 * 6 * 6)
    passes.clear()
    each, failures = chain_outcome(J, 0.2, 0.1, ("J",), quad)
    assert [n for _, n in passes] == [1, 1, 1, 1]
    assert [(i, type(e), str(e)) for i, e in failures] == [
        (i, type(e), str(e)) for i, e in one_failures]
    assert all(np.array_equal(a, b)
               for a, b in zip(fields_of(each), fields_of(one)))


def test_chain_points_raise_positivity_at_first_bad_point(monkeypatch):
    evaluated = chain_mod._evaluated

    def corrupted(tags, vals):
        points = evaluated(tags, vals)
        gzz = points.corr.gzz.copy()
        gzz[[2, 4]] = 1.5  # inner block weight (1 - gzz)/4 < 0
        state = points.state._replace(c=0.25 * (1.0 - gzz))
        return points._replace(corr=points.corr._replace(gzz=gzz), state=state)

    monkeypatch.setattr(chain_mod, "_evaluated", corrupted)
    with pytest.raises(PositivityViolation, match="negative diagonal") as info:
        chain_points(np.linspace(0.1, 0.5, 5), 0.7, 0.1)
    assert "c=-0.125" in str(info.value)
    # the outcome reports both bad points and keeps the other three
    points, failures = chain_outcome(np.linspace(0.1, 0.5, 5), 0.7, 0.1)
    assert [i for i, _ in failures] == [2, 4]
    assert all(isinstance(exc, PositivityViolation) for _, exc in failures)
    assert points.state.c.shape == (3,) and np.all(points.state.c > 0.0)


# ------------------------------------------------------------ node table

def per_node(J, gamma, D, tags, quad):
    """The values of :func:`chain_point` (float couplings) or
    :func:`chain_points` (arrays) from the per-node integrand oracle, on a
    node table of the start panels whose rows are the nodes themselves.
    The first point that does not converge raises a QuadratureFailure with
    the library's message."""
    one = np.ndim(J) == 0
    J, gamma, D = (np.atleast_1d(np.asarray(a, dtype=float))
                   for a in (J, gamma, D))
    table = NodeTable(chain_mod._START_TABLE.lo, chain_mod._START_TABLE.hi,
                      nodes)

    def f(rows, owner):
        if one:
            return integrand_rows(float(J[0]), float(gamma[0]), float(D[0]),
                                  tags, rows[0].ravel())
        node = owner.repeat(rows.shape[2])
        return integrand_rows(J[node], gamma[node], D[node], tags,
                              rows[0].ravel())

    vals, _, failures = integrate_points(
        f, table, *chain_mod._start_mesh(J, quad.max_subdivisions), quad)
    for i, exc in failures:
        raise QuadratureFailure(
            f"{exc} (J = {J[i]:g}, gamma = {gamma[i]:g}, D = {D[i]:g})")
    return chain_mod._evaluated(tags, vals[:, 0].tolist() if one else vals)


def outcome(evaluate):
    """The bits of every value of a ChainPoints, or a failure's message."""
    try:
        pts = evaluate()
    except QuadratureFailure as exc:
        return str(exc)
    return np.array(fields_of(pts), dtype=float).view(np.uint64).tolist()


TIGHT = QuadratureConfig(1e-13, 1e-13, 4096)
near_critical = st.builds(lambda sign, off: sign * (1.0 + off),
                          st.sampled_from([1.0, -1.0]),
                          st.floats(2e-9, 1e-6) | st.floats(-1e-6, -2e-9))
couplings = st.tuples(
    near_critical | st.floats(-2.0, 2.0).filter(lambda j: abs(abs(j) - 1.0) > 1e-8),
    st.floats(0.05, 1.0), st.floats(-0.5, 0.5))


@settings(max_examples=40, deadline=None)
@given(points=st.lists(couplings, min_size=1, max_size=4),
       tags=st.sampled_from([(), ("J",), PARAM_TAGS]),
       quad=st.sampled_from([DEFAULT_QUAD, TIGHT,
                             QuadratureConfig(1e-10, 1e-10, 9),
                             QuadratureConfig(1e-12, 1e-12, 24)]))
@example(points=[(-(1.0 - 5e-7), 0.3, 0.2), (1.0 + 1e-6, 0.7, -0.1),
                 (0.4, 0.5, 0.3)], tags=PARAM_TAGS, quad=TIGHT)
@example(points=[(0.3, 0.7, 0.1), (0.99999, 0.01, 0.3)], tags=("J",),
         quad=QuadratureConfig(1e-10, 1e-10, 9))
@example(points=[(1.0 + 3e-7, 0.2, -0.4)], tags=(), quad=TIGHT)
def test_chain_points_equal_the_per_node_oracle(points, tags, quad):
    # the node table changes where sin and cos are taken, not one bit
    J, gamma, D = (np.array(a) for a in zip(*points))
    assert outcome(lambda: chain_points(J, gamma, D, tags, quad)) == outcome(
        lambda: per_node(J, gamma, D, tags, quad))
    for p in points:
        assert outcome(lambda: chain_point(ChainParams(*p), tags, quad)) == \
            outcome(lambda: per_node(*p, tags, quad))


def test_node_table_holds_only_the_start_panels(monkeypatch):
    # a deep family tabulates many halves, all dropped when its pass returns
    table = chain_mod._START_TABLE
    before = table.lo.copy(), table.hi.copy(), table.rows.copy()
    factors, tabulated = table.factors, []

    def recording(x):
        tabulated.append(x.shape[0])
        return factors(x)

    monkeypatch.setattr(table, "factors", recording)
    js = -1.0 + np.linspace(-1e-3, 1e-3, 400)
    chain_points(js, 0.7, 0.1, ("J",), TIGHT)
    assert sum(tabulated) > 0
    assert table.lo.size == table.hi.size == table.rows.shape[1] == 68
    for got, want in zip((table.lo, table.hi, table.rows), before):
        assert np.array_equal(got, want)


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
