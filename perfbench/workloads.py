"""The benchmark's three workloads, run through dmchain's public API.

Each job returns ``(attempted, failed, output)``; the output is what the
checks in ``checks.py`` inspect and what ``digest`` hashes to compare the
repetitions of one run.
"""

import contextlib
import hashlib
import io
import os

import numpy as np

# The library is called through its module attributes, so that the traced
# run's wrappers see these calls too.
from dmchain import cli, features, protocol
from dmchain.cli import NUMERICAL_ERRORS
from dmchain.protocol import ProtocolConfig
from dmchain.sweep import FIGURES

# Acceptance-check configurations of the adaptive protocol.
ROBUSTNESS = dict(J_true=-0.7, gamma=0.7, J_guess=-0.3, shots=10_000,
                  rounds=3, grid=(-2.5, 2.5, 801))
ROBUSTNESS_D = (0.0, 0.1)
EFFICIENCY = dict(J_true=0.9, gamma=1.0, D=0.0, J_guess=0.9, shots=10_000,
                  rounds=3, grid=(0.02, 2.5, 801))
PAIRED_SEEDS = 40
EFFICIENCY_SEEDS = 40

FEATURES_GAMMA = 0.2
FEATURES_D = (0.1, 0.2, 0.3)
FEATURES_SCAN = (0.0, 0.3)
D_LOSS_GAMMA = 0.7
D_LOSS_RANGE = (0.0, 0.3)


def protocol_configs():
    """The 120 run configurations, seeded as the acceptance checks are.

    The run seeds do not follow the benchmark's ``--seed``: the number of
    likelihood evaluations differs from one run seed to the next, and a
    workload whose work moved with ``--seed`` would add that to the
    run-to-run spread of ``wall_s``.
    """
    paired = [ProtocolConfig(D=d, seed=s, **ROBUSTNESS)
              for s in range(PAIRED_SEEDS) for d in ROBUSTNESS_D]
    efficiency = [ProtocolConfig(seed=s, **EFFICIENCY)
                  for s in range(EFFICIENCY_SEEDS)]
    return paired + efficiency


def run_figures(seed, scratch):
    """All six figure bundles through the CLI; one operation is one row."""
    bundles = {}
    attempted = failed = 0
    for name in FIGURES:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["figure", name, "--out", scratch])
        paths = [os.path.join(scratch, name + ext) for ext in (".csv", ".json")]
        if code != 0 or not all(os.path.exists(p) for p in paths):
            raise RuntimeError("dmchain figure %s exited with %r" % (name, code))
        texts = []
        for p in paths:
            with open(p) as fh:
                texts.append(fh.read())
        bundles[name] = tuple(texts)
        rows = texts[0].splitlines()[1:]
        attempted += len(rows)
        failed += sum(1 for r in rows if not r.endswith(","))
    return attempted, failed, bundles


def run_protocol(seed, scratch):
    """120 adaptive runs from a cold probability table; one run is one op."""
    traces = []
    failed = 0
    for config in protocol_configs():
        try:
            traces.append(protocol.adaptive_run(config))
        except NUMERICAL_ERRORS:  # any other exception aborts the run
            traces.append(None)
            failed += 1
    return len(traces), failed, traces


def run_features(seed, scratch):
    """Feature classification and d_loss; one call is one operation."""
    calls = (
        lambda: features.detect_features(FEATURES_GAMMA, FEATURES_D,
                                         d_scan=FEATURES_SCAN),
        lambda: features.detect_d_loss(D_LOSS_GAMMA, D_LOSS_RANGE),
    )
    out = []
    for call in calls:
        try:
            out.append(call())
        except NUMERICAL_ERRORS:
            out.append(None)
    return len(calls), sum(o is None for o in out), tuple(out)


JOBS = {"figures": run_figures, "protocol": run_protocol,
        "features": run_features}


def digest(workload, output):
    """Hash of a job's output, exact to the last bit of every float."""
    h = hashlib.sha256()
    if workload == "figures":
        for name in sorted(output):
            for text in output[name]:
                h.update(text.encode())
    elif workload == "protocol":
        for trace in output:
            h.update(b"-" if trace is None else
                     (trace.jsonl() + repr(trace.summary())).encode())
    else:
        report, d_loss = output
        h.update(repr(report).encode())
        if d_loss is not None:
            value, bracket, (ds, profile) = d_loss
            h.update(repr((value, bracket)).encode())
            h.update(np.asarray(ds).tobytes() + np.asarray(profile).tobytes())
    return h.hexdigest()
