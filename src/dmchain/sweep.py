"""Parameter sweeps and figure-data regeneration.

A sweep walks one parameter axis, evaluates the requested information
quantities at all its points in one batched quadrature, and never
aborts: per-point failures become NaN entries plus a message in the
error column.  Figure bundles rebuild the data behind the six reference
plots as CSV with a JSON manifest.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from . import __version__
from .chain import PARAM_TAGS, ChainPoints, chain_outcome
from .errors import check_grid
from .fisher import block_qfi, information
from .multiparam import QFIM_COLS, U_COLS, spectrum
from .quadrature import DEFAULT_QUAD, QuadratureConfig

__all__ = [
    "SWEEP_QUANTITIES",
    "CriticalNudgeWarning",
    "SweepSpec",
    "SweepTable",
    "sweep",
    "figure_bundle",
    "FIGURES",
]

SWEEP_QUANTITIES = ("F", "H", "S", "QFIM", "U", "det")

# column layout per quantity
_COLUMNS = {
    "F": ("F",),
    "H": ("H",),
    "S": ("S",),
    "QFIM": QFIM_COLS,
    "U": U_COLS,
    "det": ("det", "condition_ratio"),
}


class CriticalNudgeWarning(UserWarning):
    """A sweep point sat on |J| = 1 and was moved off the divergence."""


@dataclass(frozen=True)
class SweepSpec:
    """One axis, fixed values for the other two, quantities to evaluate."""

    axis: str
    range: Tuple[float, float, int]
    fixed: Mapping[str, float]
    quantities: Tuple[str, ...] = ("F", "H", "S")
    wrt: str = "J"

    def __post_init__(self) -> None:
        if self.axis not in PARAM_TAGS:
            raise ValueError("axis must be one of %s" % (PARAM_TAGS,))
        check_grid("range", self.range)
        others = tuple(t for t in PARAM_TAGS if t != self.axis)
        if set(self.fixed) != set(others):
            raise ValueError("fixed must provide exactly %s" % (others,))
        object.__setattr__(self, "fixed", dict(self.fixed))
        qs = tuple(self.quantities)
        if not qs or any(q not in SWEEP_QUANTITIES for q in qs):
            raise ValueError("quantities must be a nonempty subset of %s"
                             % (SWEEP_QUANTITIES,))
        object.__setattr__(self, "quantities", qs)
        if self.wrt not in PARAM_TAGS:
            raise ValueError("wrt must be one of %s" % (PARAM_TAGS,))

    def axis_values(self) -> np.ndarray:
        lo, hi, points = self.range
        values = np.linspace(lo, hi, points)
        if self.axis == "J":
            on_line = np.abs(np.abs(values) - 1.0) <= 1e-9
            if np.any(on_line):
                warnings.warn(
                    "sweep hits |J| = 1; nudged to ±0.999",
                    CriticalNudgeWarning,
                )
                values = np.where(on_line, np.sign(values) * (1.0 - 1e-3), values)
        return values

    def to_dict(self) -> dict:
        return {
            "axis": self.axis,
            "range": [self.range[0], self.range[1], int(self.range[2])],
            "fixed": dict(sorted(self.fixed.items())),
            "quantities": list(self.quantities),
            "wrt": self.wrt,
        }


@dataclass(frozen=True)
class SweepTable:
    """Columnar sweep output; axis column first, error column last."""

    spec: SweepSpec
    axis_values: np.ndarray
    columns: Dict[str, np.ndarray]
    errors: Tuple[str, ...]

    def header(self) -> List[str]:
        return [self.spec.axis] + list(self.columns) + ["error"]

    def to_csv(self) -> str:
        cols = [c.tolist() for c in (self.axis_values, *self.columns.values())]
        row = "%.17g," * len(cols) + "%s"
        lines = [row % cells for cells in zip(*cols, self.errors)]
        return "\n".join([",".join(self.header())] + lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "spec": self.spec.to_dict(),
            "axis": [float(v) for v in self.axis_values],
            "columns": {k: [float(x) for x in v] for k, v in self.columns.items()},
            "errors": list(self.errors),
        }
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _columns(points: ChainPoints, spec: SweepSpec) -> Dict[str, np.ndarray]:
    """The requested columns at every point of a batched evaluation."""
    cols: Dict[str, np.ndarray] = {}
    if any(q in spec.quantities for q in ("F", "H", "S")):
        (F, H, _, _, S), (h, _, _) = information(points, spec.wrt)
        cols.update(F=F, H=H, S=S)
    else:
        h = block_qfi(points)[0]
    if "QFIM" in spec.quantities:
        cols.update(zip(QFIM_COLS, h[np.triu_indices(3)]))
    if "U" in spec.quantities:
        # exactly zero for this real family, as uhlmann_matrix returns
        cols.update((name, np.zeros(h.shape[-1])) for name in U_COLS)
    if "det" in spec.quantities:
        _, cols["det"], cols["condition_ratio"] = spectrum(
            np.linalg.eigvalsh(np.moveaxis(h, -1, 0)))
    return cols


@lru_cache(maxsize=8)
def _batch(coords: bytes, tags: Tuple[str, ...], quad: QuadratureConfig):
    """Read-only :func:`chain_outcome` at the float64 (J, gamma, D) rows of
    ``coords``, failures included; 8 entries keep fig1's sweeps for fig2
    and fig3, fig4's for fig5."""
    points, failures = chain_outcome(*np.frombuffer(coords).reshape(3, -1),
                                     tags, quad)
    for part in (points.corr, points.state, *points.dcorr.values(),
                 *points.dstate.values()):
        for array in part:
            array.flags.writeable = False
    return points, failures


def sweep(spec: SweepSpec, quad: QuadratureConfig = DEFAULT_QUAD) -> SweepTable:
    """Evaluate the requested quantities along the axis; never aborts.

    All rows are evaluated as one batched quadrature.  A row that fails
    in it gets NaN entries and the failure's message; every other row
    keeps the values it has alone.
    """
    values = spec.axis_values()
    tags = PARAM_TAGS if any(q in spec.quantities for q in ("QFIM", "U", "det")) \
        else (spec.wrt,)
    columns = {name: np.full(len(values), np.nan)
               for q in spec.quantities for name in _COLUMNS[q]}
    errors = [""] * len(values)

    coords = np.array([values if t == spec.axis
                       else np.full(values.size, spec.fixed[t], dtype=float)
                       for t in PARAM_TAGS])
    points, failures = _batch(coords.tobytes(), tags, quad)
    ok = np.ones(values.size, dtype=bool)
    for i, exc in failures:
        errors[i] = "%s: %s" % (type(exc).__name__, exc)
        ok[i] = False
    cols = _columns(points, spec)
    for name, column in columns.items():
        column[ok] = cols[name]

    return SweepTable(spec=spec, axis_values=values, columns=columns,
                      errors=tuple(errors))


# ---------------------------------------------------------------------------
# figure bundles

GAMMA_SET = (0.2, 0.5, 0.7, 1.0)
D_SET = (0.0, 0.02, 0.1, 0.2, 0.3)
_J_GRID = (-2.0, 2.0, 400)       # misses |J| = 1 by construction
_J_GRID_QFIM = (-2.0, 2.0, 160)
_D_GRID = (-0.4, 0.4, 81)
_J_NEAR_CRITICAL = 0.999
FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")


def _merge(tables: Sequence[Tuple[str, SweepTable]]) -> SweepTable:
    """Join sweeps sharing an axis into suffixed columns.

    The joined table carries the first sweep's spec, whose axis all share.
    """
    axis = tables[0][1].axis_values
    columns: Dict[str, np.ndarray] = {}
    errors = ["" for _ in axis]
    for suffix, table in tables:
        if not np.array_equal(table.axis_values, axis):
            raise ValueError("figure sweeps must share the axis grid")
        for name, data in table.columns.items():
            columns["%s_%s" % (name, suffix)] = data
        for i, msg in enumerate(table.errors):
            if msg:
                tagged = "%s: %s" % (suffix, msg)
                errors[i] = (errors[i] + "; " + tagged) if errors[i] else tagged
    return SweepTable(spec=tables[0][1].spec, axis_values=axis,
                      columns=columns, errors=tuple(errors))


def _figure_tables(name: str, quad: QuadratureConfig):
    if name == "fig1":
        specs = [("g%g" % g, SweepSpec("J", _J_GRID, {"gamma": g, "D": 0.0}))
                 for g in GAMMA_SET]
    elif name == "fig2":
        specs = [("D%g" % d, SweepSpec("J", _J_GRID, {"gamma": 0.7, "D": d}))
                 for d in D_SET]
    elif name == "fig3":
        specs = [("D%g" % d, SweepSpec("J", _J_GRID, {"gamma": 0.2, "D": d}))
                 for d in D_SET]
    elif name == "fig4":
        specs = [("", SweepSpec("D", _D_GRID,
                                {"J": _J_NEAR_CRITICAL, "gamma": 0.2},
                                quantities=("QFIM", "U")))]
    elif name == "fig5":
        specs = [("g%g" % g, SweepSpec("D", _D_GRID,
                                       {"J": _J_NEAR_CRITICAL, "gamma": g},
                                       quantities=("det",)))
                 for g in GAMMA_SET]
    elif name == "fig6":
        specs = [("D%g" % d, SweepSpec("J", _J_GRID_QFIM,
                                       {"gamma": 1.0, "D": d},
                                       quantities=("QFIM", "U", "det")))
                 for d in (0.01, 0.1, 0.2, 0.3)]
    else:
        raise ValueError("unknown figure %r; expected one of %s"
                         % (name, FIGURES))
    tables = [(suffix, sweep(s, quad)) for suffix, s in specs]
    return specs, tables


def figure_bundle(name: str, out_dir: str,
                  quad: QuadratureConfig = DEFAULT_QUAD) -> List[str]:
    """Regenerate one figure's data as CSV plus a JSON manifest."""
    specs, tables = _figure_tables(name, quad)
    if len(tables) == 1 and specs[0][0] == "":
        table = tables[0][1]
    else:
        table = _merge(tables)

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "%s.csv" % name)
    with open(csv_path, "w") as fh:
        fh.write(table.to_csv())

    manifest = {
        "figure": name,
        "library_version": __version__,
        "quadrature": {"abs_tol": quad.abs_tol, "rel_tol": quad.rel_tol,
                       "max_subdivisions": quad.max_subdivisions},
        "sweeps": [
            {"suffix": suffix, "spec": s.to_dict()} for suffix, s in specs
        ],
        "columns": table.header(),
        "rows": len(table.axis_values),
    }
    json_path = os.path.join(out_dir, "%s.json" % name)
    with open(json_path, "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return [csv_path, json_path]
