"""Correctness checks on each workload's output.

Every check returns ``(failures, worst)``: a list of messages, empty when
the output passes, and the worst relative deviation from the independent
oracle in ``oracle.py`` among the sampled points.  Property checks cover
every row or run; oracle checks cover a sample drawn from the run's seed,
at points with ||J| - 1| >= 0.05.
"""

import json
import math

import numpy as np

import oracle
from dmchain.chain import ChainParams
from dmchain.features import BRACKET_WIDTH, WINDOW
from dmchain.fisher import magnetization_fi, qfi_xstate
from dmchain.protocol import adaptive_run
from workloads import (D_LOSS_GAMMA, EFFICIENCY, FEATURES_GAMMA, PAIRED_SEEDS,
                       protocol_configs)

ORACLE_TOL = 1e-6
ORACLE_DISTANCE = 0.05       # min ||J| - 1| of a sampled point
SAMPLES = 12                 # oracle points per figure, per check group
FIGURE_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")
QFIM_COLS = ("QFIM_J_J", "QFIM_J_gamma", "QFIM_J_D", "QFIM_gamma_gamma",
             "QFIM_gamma_D", "QFIM_D_D")
U_COLS = ("U_J_gamma", "U_J_D", "U_gamma_D")
FEATURE_CLASSES = {0.1: "bump", 0.2: "peak", 0.3: "peak"}
EFFICIENCY_FACTOR = 1.5
FAR_SIDE = (1.2, 2.0, 81)    # detect_d_loss's J grid


def _rel(got, want):
    return abs(got - want) / abs(want) if want != 0.0 else abs(got)


def _sample(rng, candidates, n):
    candidates = list(candidates)
    if len(candidates) <= n:
        return candidates
    return [candidates[i] for i in sorted(rng.choice(len(candidates), n,
                                                     replace=False))]


def parse_bundle(csv_text, manifest_text):
    """(header, {column: values}, error per row, manifest) of one bundle."""
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",", len(header) - 1) for line in lines[1:]]
    cols = {}
    for k, name in enumerate(header[:-1]):
        cols[name] = np.array([float(r[k]) if len(r) == len(header) else math.nan
                               for r in rows])
    errors = [r[-1] if len(r) == len(header) else "malformed row" for r in rows]
    manifest = json.loads(manifest_text)
    return header, cols, errors, manifest


def _suffix_params(manifest):
    """Suffix -> fixed couplings of that sweep."""
    return {s["suffix"]: s["spec"]["fixed"] for s in manifest["sweeps"]}


def _col(cols, name, suffix):
    return cols[name + ("_" + suffix if suffix else "")]


def check_figures(bundles, rng):
    failures = []
    worst = 0.0
    for name in FIGURE_NAMES:
        if name not in bundles:
            failures.append("%s: bundle missing" % name)
            continue
        header, cols, errors, manifest = parse_bundle(*bundles[name])
        if manifest["columns"] != header or manifest["rows"] != len(errors):
            failures.append("%s: manifest does not describe the CSV" % name)
        ok = np.array([e == "" for e in errors])
        axis = cols[header[0]]
        for col, values in cols.items():
            if not np.all(np.isfinite(values[ok])):
                failures.append("%s: non-finite %s in a row without error"
                                % (name, col))
        fixed = _suffix_params(manifest)
        if name in ("fig1", "fig2", "fig3"):
            for sfx in fixed:
                F, H = _col(cols, "F", sfx)[ok], _col(cols, "H", sfx)[ok]
                if np.any(F > H * (1.0 + 1e-9)):
                    failures.append("%s: F > H in sweep %s" % (name, sfx))
        if name == "fig1":
            if not np.all(np.abs(axis + axis[::-1]) <= 1e-12):
                failures.append("fig1: J axis is not symmetric")
            for sfx in fixed:
                H = _col(cols, "H", sfx)
                asym = np.abs(H - H[::-1]) / np.maximum(np.abs(H), np.abs(H[::-1]))
                if not np.all(asym[ok & ok[::-1]] <= 1e-8):
                    failures.append("fig1: H(J) not even at D = 0 in sweep %s"
                                    % sfx)
        if name in ("fig4", "fig6"):
            for sfx in fixed:
                m = np.stack([_col(cols, c, sfx)[ok] for c in QFIM_COLS])
                u = np.stack([_col(cols, c, sfx)[ok] for c in U_COLS])
                if np.abs(u).max() > 1e-8 * np.abs(m).max():
                    failures.append("%s: |U| / max|H| above 1e-8 in sweep %r"
                                    % (name, sfx))
                if np.any(m[[0, 3, 5]] < 0.0):
                    failures.append("%s: negative QFIM diagonal in sweep %r"
                                    % (name, sfx))
        if name == "fig6":
            for sfx in fixed:
                det = _col(cols, "det", sfx)
                for i in np.flatnonzero(ok):
                    q = [_col(cols, c, sfx)[i] for c in QFIM_COLS]
                    mat = np.array([[q[0], q[1], q[2]], [q[1], q[3], q[4]],
                                    [q[2], q[4], q[5]]])
                    scale = np.abs(mat).max() ** 3
                    if abs(det[i] - np.linalg.det(mat)) > 1e-10 * scale:
                        failures.append("fig6: det disagrees with the QFIM at "
                                        "row %d of sweep %s" % (i, sfx))
                        break
        # oracle comparison at sampled (row, sweep) pairs away from |J| = 1
        if header[0] != "J":
            continue
        far = [(i, s) for i in np.flatnonzero(ok) for s in fixed
               if abs(abs(axis[i]) - 1.0) >= ORACLE_DISTANCE]
        for i, sfx in _sample(rng, far, SAMPLES):
            J, g, D = float(axis[i]), fixed[sfx]["gamma"], fixed[sfx]["D"]
            if name == "fig6":
                want = oracle.qfim(J, g, D)
                got = np.array([_col(cols, c, sfx)[i] for c in QFIM_COLS])
                want = want[np.triu_indices(3)]
                dev = float(np.abs(got - want).max() / np.abs(want).max())
            else:
                F, H = oracle.fisher(J, g, D)
                dev = max(_rel(_col(cols, "F", sfx)[i], F),
                          _rel(_col(cols, "H", sfx)[i], H))
            worst = max(worst, dev)
            if not dev <= ORACLE_TOL:
                failures.append("%s: row J=%.6g sweep %s deviates %.2e from "
                                "the oracle" % (name, J, sfx, dev))
    return failures, worst


def check_protocol(traces, rng):
    failures = []
    configs = protocol_configs()
    paired = configs[:2 * PAIRED_SEEDS]
    for trace, config in zip(traces, configs):
        if trace is None:
            continue
        rounds = trace.rounds
        if (len(rounds) > config.rounds
                or any(sum(r.counts) != config.shots for r in rounds)
                or trace.final_estimate != rounds[-1].estimate
                or trace.final_variance != rounds[-1].variance_est):
            failures.append("seed %d: trace is inconsistent" % config.seed)
            break
    conv = {}
    for trace, config in zip(traces[:len(paired)], paired):
        conv[config.D] = conv.get(config.D, 0) + bool(trace and trace.converged)
    if conv.get(0.1, 0) < conv.get(0.0, 0):
        failures.append("robustness: %d converged with D = 0.1 against %d "
                        "with D = 0" % (conv.get(0.1, 0), conv.get(0.0, 0)))
    estimates = [t.final_estimate for t in traces[len(paired):] if t is not None]
    F_oracle, _ = oracle.fisher(EFFICIENCY["J_true"], EFFICIENCY["gamma"],
                                EFFICIENCY["D"])
    bound = 1.0 / (EFFICIENCY["shots"] * F_oracle)
    variance = float(np.var(estimates, ddof=1))
    if not variance <= EFFICIENCY_FACTOR * bound:
        failures.append("efficiency: empirical variance %.3e above %.1f x "
                        "1/(M F) = %.3e" % (variance, EFFICIENCY_FACTOR,
                                            EFFICIENCY_FACTOR * bound))
    F_lib = magnetization_fi(ChainParams(EFFICIENCY["J_true"],
                                         EFFICIENCY["gamma"],
                                         EFFICIENCY["D"]), "J")
    worst = _rel(F_lib, F_oracle)
    if not worst <= ORACLE_TOL:
        failures.append("efficiency: F(J_true) deviates %.2e from the oracle"
                        % worst)
    groups = (range(0, len(paired), 2), range(1, len(paired), 2),
              range(len(paired), len(configs)))
    for group in groups:
        k = int(rng.choice(list(group)))
        if traces[k] is None:
            continue
        again = adaptive_run(configs[k])
        if (again.jsonl(), again.summary()) != (traces[k].jsonl(),
                                                traces[k].summary()):
            failures.append("seed %d: repeated run gives another trace"
                            % configs[k].seed)
    return failures, worst


def check_features(output, rng):
    failures = []
    worst = 0.0
    report, d_loss = output
    if report is not None:
        if report.classifications != FEATURE_CLASSES:
            failures.append("classes %s, expected %s"
                            % (report.classifications, FEATURE_CLASSES))
        if not (report.d_bump is not None and report.d_peak is not None
                and 0.0 < report.d_bump <= report.d_peak):
            failures.append("thresholds d_bump=%r d_peak=%r"
                            % (report.d_bump, report.d_peak))
        else:
            for label, est, (lo, hi) in (
                    ("d_bump", report.d_bump, report.d_bump_bracket),
                    ("d_peak", report.d_peak, report.d_peak_bracket)):
                if not (hi - lo <= BRACKET_WIDTH * (1 + 1e-9) and lo <= est <= hi):
                    failures.append("%s=%r outside or wider than its bracket %r"
                                    % (label, est, (lo, hi)))
        window = np.linspace(WINDOW[0], WINDOW[1], 561)
        far = [(float(j), d) for j in window for d in FEATURE_CLASSES
               if abs(abs(j) - 1.0) >= ORACLE_DISTANCE]
        for J, D in _sample(rng, far, SAMPLES):
            got = qfi_xstate(ChainParams(J, FEATURES_GAMMA, D), "J")
            dev = _rel(got, oracle.fisher(J, FEATURES_GAMMA, D)[1])
            worst = max(worst, dev)
            if not dev <= ORACLE_TOL:
                failures.append("H(J=%.6g, D=%g) deviates %.2e from the oracle"
                                % (J, D, dev))
    if d_loss is not None:
        value, (lo, hi), (ds, profile) = d_loss
        if not lo <= value <= hi:
            failures.append("d_loss=%r outside its bracket %r" % (value, (lo, hi)))
        k = int(rng.integers(len(ds)))
        js = np.linspace(*FAR_SIDE)
        hs = np.array([oracle.fisher(float(j), D_LOSS_GAMMA, float(ds[k]))[1]
                       for j in js])
        want = float(np.sum(0.5 * (hs[1:] + hs[:-1]) * np.diff(js)))
        dev = _rel(float(profile[k]), want)
        worst = max(worst, dev)
        if not dev <= ORACLE_TOL:
            failures.append("integrated H at D=%g deviates %.2e from the oracle"
                            % (ds[k], dev))
    return failures, worst


CHECKS = {"figures": check_figures, "protocol": check_protocol,
          "features": check_features}
