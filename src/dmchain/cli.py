"""Command line interface.

Subcommands map onto the library layers: `state` and `fisher` evaluate a
single parameter point, `sweep` walks an axis, `qfim` reports the
multiparameter objects, `protocol` simulates the adaptive estimation run
(seed required, trace as JSON lines), `features` classifies information
curves, `figure` regenerates the reference figure data.  Each handler
imports the layers its command runs, so a start loads no other layer.

Exit codes: 0 success, 2 invalid arguments or spec, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .chain import ChainParams, chain_point
from .errors import NUMERICAL_ERRORS
from .quadrature import DEFAULT_QUAD, QuadratureConfig

__all__ = ["main"]


def _colon_tuple(text: str, types, form: str):
    parts = text.split(":")
    if len(parts) != len(types):
        raise argparse.ArgumentTypeError("expected %s, got %r" % (form, text))
    try:
        return tuple(t(part) for t, part in zip(types, parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _range_triple(text: str):
    return _colon_tuple(text, (float, float, int), "lo:hi:n")


def _range_pair(text: str):
    return _colon_tuple(text, (float, float), "lo:hi")


def _float_list(text: str):
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _quantity_list(text: str):
    return tuple(text.split(","))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _quad(args) -> QuadratureConfig:
    if getattr(args, "tol", None) is None:
        return DEFAULT_QUAD
    return QuadratureConfig(abs_tol=args.tol, rel_tol=args.tol)


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _csv_row(header, values) -> str:
    cells = [v if isinstance(v, str) else "%.17g" % v for v in values]
    return ",".join(header) + "\n" + ",".join(cells) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmchain",
        description="information geometry of the anisotropic chain with "
                    "antisymmetric exchange",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_point_args(p, with_wrt=False):
        p.add_argument("--J", type=float, required=True)
        p.add_argument("--gamma", type=float, required=True)
        p.add_argument("--D", type=float, default=0.0)
        if with_wrt:
            p.add_argument("--wrt", choices=("J", "gamma", "D"), default="J")
        p.add_argument("--tol", type=float, default=None,
                       help="quadrature tolerance override")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="json")

    p_state = sub.add_parser("state", help="correlators and the two-spin state")
    add_point_args(p_state)

    p_fisher = sub.add_parser("fisher", help="F, H and saturation at a point")
    add_point_args(p_fisher, with_wrt=True)

    p_sweep = sub.add_parser("sweep", help="walk one parameter axis")
    p_sweep.add_argument("--axis", choices=("J", "gamma", "D"), required=True)
    p_sweep.add_argument("--range", type=_range_triple, required=True,
                         metavar="lo:hi:n")
    p_sweep.add_argument("--J", type=float, default=None)
    p_sweep.add_argument("--gamma", type=float, default=None)
    p_sweep.add_argument("--D", type=float, default=None)
    p_sweep.add_argument("--quantities", type=_quantity_list,
                         default=("F", "H", "S"))
    p_sweep.add_argument("--wrt", choices=("J", "gamma", "D"), default="J")
    p_sweep.add_argument("--tol", type=float, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    p_qfim = sub.add_parser("qfim", help="QFIM, Uhlmann matrix, determinant")
    add_point_args(p_qfim)
    p_qfim.add_argument("--shots", type=int, default=None,
                        help="also report the matrix Cramér-Rao bound")

    p_proto = sub.add_parser("protocol", help="adaptive estimation run")
    p_proto.add_argument("--J", type=float, required=True,
                         help="true coupling")
    p_proto.add_argument("--gamma", type=float, required=True)
    p_proto.add_argument("--D", type=float, default=0.0)
    p_proto.add_argument("--J-guess", type=float, required=True)
    p_proto.add_argument("--shots", type=int, default=10_000)
    p_proto.add_argument("--rounds", type=int, default=3)
    p_proto.add_argument("--grid", type=_range_triple, default=(-2.5, 2.5, 801),
                         metavar="lo:hi:n")
    p_proto.add_argument("--seed", type=int, required=True)
    p_proto.add_argument("--tol", type=float, default=None)
    p_proto.add_argument("--out", default=None,
                         help="write the JSONL trace here; summary to stdout")

    p_feat = sub.add_parser("features", help="classify H(J) curves in D")
    p_feat.add_argument("--gamma", type=float, required=True)
    p_feat.add_argument("--D", type=_float_list, required=True,
                        metavar="d1,d2,...")
    p_feat.add_argument("--scan", type=_range_pair, default=None,
                        metavar="lo:hi",
                        help="interval for threshold bisection")
    p_feat.add_argument("--d-loss", action="store_true",
                        help="also locate the integrated-information maximum")
    p_feat.add_argument("--tol", type=float, default=None)
    p_feat.add_argument("--out", default=None)

    p_fig = sub.add_parser("figure", help="regenerate reference figure data")
    p_fig.add_argument("name", help="figure to regenerate, fig1 to fig6")
    p_fig.add_argument("--out", default=".", help="output directory")
    p_fig.add_argument("--tol", type=float, default=None)

    return parser


def _cmd_state(args) -> int:
    params = ChainParams(args.J, args.gamma, args.D)
    point = chain_point(params, (), _quad(args))
    c = point.corr
    p = np.clip(point.state.probabilities(), 0.0, None)
    if args.format == "json":
        text = _json_dumps({
            "J": params.J, "gamma": params.gamma, "D": params.D,
            "mz": c.mz, "gxx": c.gxx, "gyy": c.gyy, "gzz": c.gzz,
            "probabilities": {"uu": p[0], "ud": p[1], "du": p[2], "dd": p[3]},
        })
    else:
        text = _csv_row(
            ["J", "gamma", "D", "mz", "gxx", "gyy", "gzz",
             "p_uu", "p_ud", "p_du", "p_dd"],
            [params.J, params.gamma, params.D, c.mz, c.gxx, c.gyy, c.gzz,
             p[0], p[1], p[2], p[3]])
    _emit(text, args.out)
    return 0


def _cmd_fisher(args) -> int:
    from .fisher import fisher_point

    params = ChainParams(args.J, args.gamma, args.D)
    fp = fisher_point(params, args.wrt, _quad(args))
    row = {"J": params.J, "gamma": params.gamma, "D": params.D,
           "wrt": args.wrt,
           "F": fp.F, "H": fp.H, "H1": fp.H1, "H2": fp.H2, "S": fp.S}
    if args.format == "json":
        text = _json_dumps(row)
    else:
        text = _csv_row(row, row.values())
    _emit(text, args.out)
    return 0


def _cmd_sweep(args) -> int:
    from .sweep import SweepSpec, sweep

    fixed = {}
    for tag in ("J", "gamma", "D"):
        value = getattr(args, tag)
        if tag == args.axis:
            if value is not None:
                raise ValueError("--%s conflicts with --axis %s" % (tag, tag))
            continue
        if value is None:
            raise ValueError("missing fixed value --%s for this axis" % tag)
        fixed[tag] = value
    spec = SweepSpec(axis=args.axis, range=args.range, fixed=fixed,
                     quantities=tuple(args.quantities), wrt=args.wrt)
    table = sweep(spec, _quad(args))
    text = table.to_csv() if args.format == "csv" else table.to_json()
    _emit(text, args.out)
    return 0


def _cmd_qfim(args) -> int:
    from .multiparam import (QFIM_COLS, U_COLS, matrix_crb, qfi_matrix,
                             uhlmann_matrix)

    params = ChainParams(args.J, args.gamma, args.D)
    quad = _quad(args)
    qm = qfi_matrix(params, quad)
    um = uhlmann_matrix(params)
    payload = {
        "J": params.J, "gamma": params.gamma, "D": params.D,
        "qfim": [[float(x) for x in row] for row in qm.matrix],
        "uhlmann": [[float(x) for x in row] for row in um.matrix],
        "det": qm.det,
        "eigenvalues": [float(x) for x in qm.eigenvalues],
        "condition_ratio": qm.condition_ratio,
    }
    if args.shots is not None:
        crb = matrix_crb(qm, shots=args.shots)
        payload["crb"] = [[float(x) for x in row] for row in crb]
        payload["shots"] = args.shots
    if args.format == "csv":
        text = _csv_row(
            QFIM_COLS + U_COLS + ("det", "condition_ratio"),
            [*qm.matrix[np.triu_indices(3)], *um.matrix[np.triu_indices(3, 1)],
             qm.det, qm.condition_ratio])
    else:
        text = _json_dumps(payload)
    _emit(text, args.out)
    return 0


def _cmd_protocol(args) -> int:
    from .protocol import ProtocolConfig, adaptive_run

    config = ProtocolConfig(
        J_true=args.J, gamma=args.gamma, D=args.D, J_guess=args.J_guess,
        shots=args.shots, rounds=args.rounds, grid=args.grid, seed=args.seed,
    )
    trace = adaptive_run(config, _quad(args))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(trace.jsonl())
        sys.stdout.write(_json_dumps(trace.summary()))
    else:
        sys.stdout.write(trace.jsonl())
        sys.stderr.write(_json_dumps(trace.summary()))
    return 0


def _cmd_features(args) -> int:
    from .features import detect_d_loss, detect_features

    report = detect_features(args.gamma, args.D, d_scan=args.scan,
                             quad=_quad(args))
    payload = {
        "gamma": report.gamma,
        "classifications": {"%g" % d: c
                            for d, c in sorted(report.classifications.items())},
        "d_bump": report.d_bump,
        "d_bump_bracket": report.d_bump_bracket,
        "d_peak": report.d_peak,
        "d_peak_bracket": report.d_peak_bracket,
    }
    if args.d_loss:
        lo = min(args.D)
        hi = max(args.D)
        if args.scan is not None:
            lo, hi = min(lo, args.scan[0]), max(hi, args.scan[1])
        d_loss, bracket, (ds, profile) = detect_d_loss(
            args.gamma, (lo, hi), quad=_quad(args))
        payload["d_loss"] = d_loss
        payload["d_loss_bracket"] = bracket
        payload["d_loss_profile"] = {
            "D": [float(x) for x in ds],
            "integrated_H": [float(x) for x in profile],
        }
    _emit(_json_dumps(payload), args.out)
    return 0


def _cmd_figure(args) -> int:
    from .sweep import figure_bundle

    paths = figure_bundle(args.name, args.out, _quad(args))
    sys.stdout.write("\n".join(paths) + "\n")
    return 0


_HANDLERS = {
    "state": _cmd_state,
    "fisher": _cmd_fisher,
    "sweep": _cmd_sweep,
    "qfim": _cmd_qfim,
    "protocol": _cmd_protocol,
    "features": _cmd_features,
    "figure": _cmd_figure,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except NUMERICAL_ERRORS as exc:
        sys.stderr.write("numerical failure: %s\n" % exc)
        return 3
    except ValueError as exc:
        sys.stderr.write("invalid spec: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
