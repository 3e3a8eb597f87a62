"""Parameter sweeps and reproducible figure bundles."""

import dataclasses
import importlib
import json
import math
import os
import warnings

import numpy as np
import pytest

from dmchain.chain import PARAM_TAGS, ChainParams
from dmchain.fisher import (BlockDegenerateWarning,
                            DivergentInformationWarning, fisher_point)
from dmchain.multiparam import qfi_matrix
from dmchain.quadrature import DEFAULT_QUAD, QuadratureConfig
from dmchain.sweep import (FIGURES, CriticalNudgeWarning, SweepSpec,
                           SweepTable, figure_bundle, sweep)

# the package exports a function named sweep over the module's name
sweep_mod = importlib.import_module("dmchain.sweep")
fisher_mod = importlib.import_module("dmchain.fisher")


def spec_fhs(rng=(0.2, 0.8, 7), gamma=0.5, D=0.1):
    return SweepSpec("J", rng, {"gamma": gamma, "D": D})


@pytest.fixture
def cold_memo():
    """Start from an empty batch memo and leave none of the test's entries."""
    sweep_mod._batch.cache_clear()
    yield
    sweep_mod._batch.cache_clear()


# ------------------------------------------------------------------- specs

def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec("kappa", (0.0, 1.0, 5), {"gamma": 0.5, "D": 0.0})
    with pytest.raises(ValueError):
        SweepSpec("J", (1.0, 0.0, 5), {"gamma": 0.5, "D": 0.0})
    with pytest.raises(ValueError):
        SweepSpec("J", (0.0, 1.0, 1), {"gamma": 0.5, "D": 0.0})
    with pytest.raises(ValueError):
        SweepSpec("J", (0.0, 1.0, 5), {"gamma": 0.5})
    with pytest.raises(ValueError):
        SweepSpec("J", (0.0, 1.0, 5), {"gamma": 0.5, "J": 0.0})
    with pytest.raises(ValueError):
        SweepSpec("J", (0.0, 1.0, 5), {"gamma": 0.5, "D": 0.0},
                  quantities=("F", "X"))
    with pytest.raises(ValueError):
        SweepSpec("J", (0.0, 1.0, 5), {"gamma": 0.5, "D": 0.0}, wrt="B")


def test_axis_nudges_critical_coupling():
    spec = SweepSpec("J", (0.5, 1.5, 3), {"gamma": 0.5, "D": 0.0})
    with pytest.warns(CriticalNudgeWarning):
        values = spec.axis_values()
    assert values[1] == pytest.approx(0.999)
    assert values[0] == 0.5 and values[2] == 1.5
    # other axes pass through unchanged
    dspec = SweepSpec("D", (-1.0, 1.0, 3), {"J": 0.5, "gamma": 0.5})
    assert np.array_equal(dspec.axis_values(), [-1.0, 0.0, 1.0])


# ------------------------------------------------------------------ sweeps

def test_sweep_fhs_columns():
    table = sweep(spec_fhs())
    assert table.header() == ["J", "F", "H", "S", "error"]
    assert all(msg == "" for msg in table.errors)
    assert np.all(table.columns["F"] <= table.columns["H"] + 1e-9)
    assert np.allclose(table.columns["S"],
                       table.columns["F"] / table.columns["H"])


def test_sweep_records_per_point_failures():
    # gamma = 0 beyond the gapless threshold: the derivative guard trips
    # for that row only, the rest of the sweep survives
    spec = SweepSpec("J", (0.5, 1.5, 3), {"gamma": 0.0, "D": 0.0})
    with pytest.warns(CriticalNudgeWarning):
        table = sweep(spec)
    assert table.errors[2].startswith("CriticalPoint")
    assert math.isnan(table.columns["F"][2])
    assert table.errors[0] == ""
    assert table.columns["F"][0] == 0.0  # flat direction carries nothing
    assert math.isnan(table.columns["S"][0])  # 0/0 ratio undefined


def test_sweep_evenness_without_dm_term():
    table = sweep(SweepSpec("J", (-0.6, 0.6, 13), {"gamma": 0.5, "D": 0.0}))
    H = table.columns["H"]
    assert np.allclose(H, H[::-1], rtol=1e-9, atol=1e-12)
    asym = sweep(SweepSpec("J", (-0.6, 0.6, 13), {"gamma": 0.5, "D": 0.1}))
    Ha = asym.columns["H"]
    assert abs(Ha[0] - Ha[-1]) > 1e-3 * abs(Ha[-1])


def test_sweep_matrix_quantities():
    spec = SweepSpec("D", (-0.2, 0.2, 3), {"J": 0.5, "gamma": 0.7},
                     quantities=("QFIM", "U", "det"))
    table = sweep(spec)
    names = table.header()
    assert names[0] == "D" and names[-1] == "error"
    assert "QFIM_J_J" in names and "QFIM_gamma_D" in names
    assert "U_J_gamma" in names and "det" in names and "condition_ratio" in names
    # the D = 0 chain is exactly sloppy: one zero direction kills the det
    assert table.columns["det"][0] > 0.0
    assert abs(table.columns["det"][1]) < 1e-15
    assert table.columns["det"][2] > 0.0
    # Uhlmann entries are roundoff for this real family
    assert np.abs(table.columns["U_J_D"]).max() < 1e-8


def test_failing_batch_rows_fail_alone(cold_memo):
    # a tight budget: rows 0-4 converge, rows 5-6 (J near 1) do not
    spec = SweepSpec("J", (0.1, 0.99, 7), {"gamma": 0.5, "D": 0.1})
    table = sweep(spec, QuadratureConfig(1e-10, 1e-10, 8))
    # the failed batch is not kept: a second sweep fails it again
    assert sweep(spec, QuadratureConfig(1e-10, 1e-10, 8)).to_csv() \
        == table.to_csv()
    assert sweep_mod._batch.cache_info().currsize == 0
    for i in (5, 6):
        assert table.errors[i].startswith("QuadratureFailure: ")
        assert all(math.isnan(table.columns[c][i]) for c in ("F", "H", "S"))
    # the message names the row's couplings, not its index in the re-run
    assert "J = 0.841667, gamma = 0.5, D = 0.1" in table.errors[5]
    assert "J = 0.99, gamma = 0.5, D = 0.1" in table.errors[6]
    for i in range(5):
        assert table.errors[i] == ""
        assert all(math.isfinite(table.columns[c][i]) for c in ("F", "H", "S"))


def test_block_algebra_runs_once_per_batch(monkeypatch, cold_memo):
    # F, H and S reach the blocks through fisher.information
    calls = []
    real = fisher_mod.block_qfi

    def counting(points):
        calls.append(points)
        return real(points)

    monkeypatch.setattr(sweep_mod, "block_qfi", counting)
    monkeypatch.setattr(fisher_mod, "block_qfi", counting)
    spec = dataclasses.replace(spec_fhs(),
                               quantities=("F", "H", "S", "QFIM", "det"))
    sweep(spec)
    assert len(calls) == 1 and tuple(calls[0].dstate) == PARAM_TAGS
    sweep(dataclasses.replace(spec, quantities=("QFIM", "det")))
    assert len(calls) == 2 and calls[1] is calls[0]
    # a failing batch: once per batch that succeeds, each row alone
    batches = []
    real_points = sweep_mod.chain_points

    def recording(*args, **kwargs):
        points = real_points(*args, **kwargs)
        batches.append(points)
        return points

    monkeypatch.setattr(sweep_mod, "chain_points", recording)
    calls.clear()
    sweep(dataclasses.replace(spec, range=(0.1, 0.99, 7)),
          QuadratureConfig(1e-10, 1e-10, 8))
    assert len(calls) == len(batches) >= 2
    assert all(c is b for c, b in zip(calls, batches))


def test_row_whose_integrals_are_not_finite_gets_an_error_cell():
    # D = 1e308 is refused as out of range before the batch; row 0 survives
    spec = SweepSpec("D", (0.1, 1e308, 2), {"J": 0.5, "gamma": 0.5})
    table = sweep(spec)
    assert table.errors[0] == ""
    assert all(math.isfinite(table.columns[c][0]) for c in ("F", "H", "S"))
    assert table.errors[1].startswith("ValueError: couplings must satisfy")
    assert all(math.isnan(table.columns[c][1]) for c in ("F", "H", "S"))


def test_one_batch_per_spec(monkeypatch, cold_memo):
    calls = []
    real = sweep_mod.chain_points

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sweep_mod, "chain_points", counting)
    first = sweep(spec_fhs())
    sweep(SweepSpec("D", (-0.2, 0.2, 5), {"J": 0.5, "gamma": 0.7},
                    quantities=("QFIM", "U", "det")))
    assert [len(c[0]) for c in calls] == [7, 5]
    # rows rejected before the batch stay out of it
    with pytest.warns(CriticalNudgeWarning):
        sweep(SweepSpec("J", (0.5, 1.5, 3), {"gamma": 0.0, "D": 0.0}))
    assert len(calls) == 3 and len(calls[2][0]) == 2
    # the same rows over the same tags, for other quantities, reuse a batch
    again = sweep(SweepSpec("J", (0.2, 0.8, 7), {"gamma": 0.5, "D": 0.1},
                            quantities=("H",)))
    assert len(calls) == 3
    assert np.array_equal(again.columns["H"], first.columns["H"])
    # other tags, quadrature, couplings or row count miss
    sweep(SweepSpec("J", (0.2, 0.8, 7), {"gamma": 0.5, "D": 0.1}, wrt="D"))
    sweep(spec_fhs(), QuadratureConfig(1e-9, 1e-9))
    sweep(spec_fhs(D=np.nextafter(0.1, 1.0)))
    sweep(spec_fhs((0.2, 0.8, 8)))
    assert len(calls) == 7
    info = sweep_mod._batch.cache_info()
    assert (info.hits, info.misses) == (1, 7)


@pytest.mark.parametrize("spec", [
    SweepSpec("J", (-2.0, 2.0, 40), {"gamma": 0.2, "D": 0.0}),
    SweepSpec("J", (-2.0, 2.0, 16), {"gamma": 1.0, "D": 0.1},
              quantities=("QFIM", "U", "det")),
    SweepSpec("J", (-0.9, 0.9, 7), {"gamma": 0.5, "D": 0.2},
              quantities=("S", "QFIM"), wrt="D"),
])
def test_batched_columns_match_per_point(spec):
    # a fig1 line, a fig6 line and a mixed request against the per-point
    # library calls, bit for bit
    table = sweep(spec)
    assert all(msg == "" for msg in table.errors)
    for i, v in enumerate(table.axis_values):
        params = ChainParams(**dict(spec.fixed, **{spec.axis: float(v)}))
        row = {name: col[i] for name, col in table.columns.items()}
        fp = fisher_point(params, spec.wrt)
        for name in ("F", "H", "S"):
            if name in row:
                assert np.array_equal(row[name], getattr(fp, name),
                                      equal_nan=True)
        qm = qfi_matrix(params)
        if "QFIM" in spec.quantities:
            got = [row[c] for c in sweep_mod.QFIM_COLS]
            assert got == list(qm.matrix[np.triu_indices(3)])
        if "det" in spec.quantities:
            assert row["det"] == qm.det
            assert row["condition_ratio"] == qm.condition_ratio
        if "U" in spec.quantities:
            assert all(row[c] == 0.0 for c in sweep_mod.U_COLS)


# ------------------------------------------------------- shared batches

def test_batch_arrays_are_read_only(cold_memo):
    coords = np.array([[0.3, 0.5], [0.5, 0.5], [0.1, 0.1]]).tobytes()
    points = sweep_mod._batch(coords, PARAM_TAGS, DEFAULT_QUAD)
    assert sweep_mod._batch(coords, PARAM_TAGS, DEFAULT_QUAD) is points
    parts = [points.corr, points.state, *points.dcorr.values(),
             *points.dstate.values()]
    assert len(parts) == 8
    for part in parts:
        for array in vars(part).values():
            assert array.shape == (2,) and not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0


def test_warnings_are_raised_again_on_a_hit(monkeypatch, cold_memo):
    # the memo holds chain output only; the information algebra, and its
    # warnings, run on every sweep.  A doctored derivative makes the dead
    # outcome ud of the J = 0 row (up-up state) carry information.
    real = sweep_mod.chain_points

    def doctored(*args, **kwargs):
        points = real(*args, **kwargs)
        bumped = dataclasses.replace(points.dstate["J"],
                                     c=np.ones_like(points.dstate["J"].c))
        return dataclasses.replace(points, dstate={"J": bumped})

    monkeypatch.setattr(sweep_mod, "chain_points", doctored)
    spec = SweepSpec("J", (-0.01, 0.01, 3), {"gamma": 0.7, "D": 0.0})
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = sweep(spec)
        assert {w.category for w in caught} == {DivergentInformationWarning,
                                                BlockDegenerateWarning}
        assert table.columns["F"][1] == math.inf
    assert sweep_mod._batch.cache_info().hits == 1


def test_figure_set_reuses_each_shared_sweep(tmp_path, cold_memo):
    def read(name, sub):
        return [open(os.path.join(tmp_path, sub, name + ext), "rb").read()
                for ext in (".csv", ".json")]

    figure_bundle("fig3", os.path.join(tmp_path, "cold"))
    sweep_mod._batch.cache_clear()
    for name in FIGURES:
        figure_bundle(name, os.path.join(tmp_path, "set"))
    # fig2's and fig3's D = 0 lines and fig5's gamma = 0.2 line
    assert sweep_mod._batch.cache_info().hits == 3
    assert read("fig3", "set") == read("fig3", "cold")


# ----------------------------------------------------------- serialization

def test_csv_round_trip():
    table = sweep(spec_fhs((0.3, 0.5, 3)))
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "J,F,H,S,error"
    assert len(lines) == 4
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert float(cells[0]) == table.axis_values[i]  # %.17g round-trips
        assert float(cells[2]) == table.columns["H"][i]
        assert cells[4] == ""


def test_csv_rows_match_per_cell_formatting():
    # the per-cell formatting the row template replaced, as the reference,
    # on signed zeros, NaN, infinities, subnormals and error messages
    table = SweepTable(
        spec=spec_fhs(), axis_values=np.array([0.2, -0.0, 1e-310]),
        columns={"F": np.array([math.nan, math.inf, -math.inf]),
                 "H": np.array([1.0 / 3.0, -0.0, 5e-324]),
                 "S": np.array([0.1, 2.0, 1e300])},
        errors=("", "CriticalPoint: a, b", "ValueError: 100% (J = 1)"))
    want = [",".join(table.header())]
    for i, v in enumerate(table.axis_values):
        want.append(",".join(["%.17g" % v]
                             + ["%.17g" % c[i] for c in table.columns.values()]
                             + [table.errors[i]]))
    assert table.to_csv() == "\n".join(want) + "\n"


def test_json_payload():
    table = sweep(spec_fhs((0.3, 0.5, 3)))
    payload = json.loads(table.to_json())
    assert set(payload) == {"spec", "axis", "columns", "errors"}
    assert payload["spec"]["axis"] == "J"
    assert payload["spec"]["fixed"] == {"D": 0.1, "gamma": 0.5}
    assert len(payload["axis"]) == 3


def test_sweep_deterministic():
    a = sweep(spec_fhs((0.3, 0.5, 3)))
    sweep_mod._batch.cache_clear()
    b = sweep(spec_fhs((0.3, 0.5, 3)))
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


# ------------------------------------------------------------ figure bundles

def test_figure_bundle_reproducible(tmp_path):
    d1 = os.path.join(tmp_path, "a")
    d2 = os.path.join(tmp_path, "b")
    paths1 = figure_bundle("fig4", d1)
    sweep_mod._batch.cache_clear()
    paths2 = figure_bundle("fig4", d2)
    for p1, p2 in zip(paths1, paths2):
        with open(p1, "rb") as fh:
            b1 = fh.read()
        with open(p2, "rb") as fh:
            b2 = fh.read()
        assert b1 == b2

    manifest = json.loads(open(paths1[1]).read())
    assert manifest["figure"] == "fig4"
    assert manifest["rows"] == 81
    assert "QFIM_J_J" in manifest["columns"]
    assert manifest["columns"][0] == "D"
    assert "timestamp" not in manifest

    with open(paths1[0]) as fh:
        header = fh.readline().strip().split(",")
    assert header == manifest["columns"]


def test_figure_names():
    assert FIGURES == ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")
    with pytest.raises(ValueError):
        figure_bundle("fig7", "/tmp/nowhere")
