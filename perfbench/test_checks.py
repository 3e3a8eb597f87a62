"""The benchmark's checks accept real output and reject corrupted output.

Each workload's job runs once (about five seconds each); every test then
hands the check a copy with one defect planted and expects a failure.
"""

import dataclasses
import tempfile

import numpy as np
import pytest

import checks
import workloads

SEED = 7


def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="module")
def bundles():
    with tempfile.TemporaryDirectory() as scratch:
        return workloads.run_figures(SEED, scratch)[2]


@pytest.fixture(scope="module")
def traces():
    return workloads.run_protocol(SEED, None)[2]


@pytest.fixture(scope="module")
def feature_output():
    return workloads.run_features(SEED, None)[2]


def _set_column(bundle, column, transform):
    """Apply ``transform(values) -> values`` to the named CSV columns."""
    csv_text, manifest = bundle
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",", len(header) - 1) for line in lines[1:]]
    for name in column:
        k = header.index(name)
        values = transform(np.array([float(r[k]) for r in rows]))
        for r, v in zip(rows, values):
            r[k] = "%.17g" % v
    return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n", manifest


def _figures_fail(bundles, **changed):
    failures, _ = checks.check_figures(dict(bundles, **changed), rng())
    return failures


def test_real_outputs_pass(bundles, traces, feature_output):
    assert checks.check_figures(bundles, rng())[0] == []
    assert checks.check_protocol(traces, rng())[0] == []
    assert checks.check_features(feature_output, rng())[0] == []


def test_figures_reject_scaled_h(bundles):
    cols = ["H_g0.2", "H_g0.5", "H_g0.7", "H_g1"]
    fig1 = _set_column(bundles["fig1"], cols, lambda v: v * 1.001)
    assert _figures_fail(bundles, fig1=fig1)


def test_figures_reject_swapped_columns(bundles):
    csv_text, manifest = bundles["fig2"]
    header = csv_text.splitlines()[0]
    swapped = header.replace("F_D0.1,", "tmp,").replace("H_D0.1,", "F_D0.1,")
    swapped = swapped.replace("tmp,", "H_D0.1,")
    fig2 = (csv_text.replace(header, swapped, 1), manifest)
    assert _figures_fail(bundles, fig2=fig2)


def test_figures_reject_changed_byte(bundles):
    # run.py requires every repetition's output to hash alike
    csv_text, manifest = bundles["fig5"]
    k = csv_text.index("\n") + 5
    digit = "1" if csv_text[k] != "1" else "2"
    changed = dict(bundles, fig5=(csv_text[:k] + digit + csv_text[k + 1:],
                                  manifest))
    assert (workloads.digest("figures", changed)
            != workloads.digest("figures", bundles))


def test_figures_reject_nonzero_uhlmann_and_nan(bundles):
    fig4 = _set_column(bundles["fig4"], ["U_J_D"], lambda v: v + 1e-3)
    assert _figures_fail(bundles, fig4=fig4)
    fig3 = _set_column(bundles["fig3"], ["S_D0.2"],
                       lambda v: np.where(np.arange(v.size) == 7, np.nan, v))
    assert _figures_fail(bundles, fig3=fig3)


def test_figures_reject_wrong_det(bundles):
    fig6 = _set_column(bundles["fig6"], ["det_D0.1"], lambda v: v * 1.01)
    assert _figures_fail(bundles, fig6=fig6)


def _final(trace, estimate):
    last = dataclasses.replace(trace.rounds[-1], estimate=estimate)
    return dataclasses.replace(trace, rounds=trace.rounds[:-1] + (last,),
                               final_estimate=estimate)


def _protocol_fails(traces):
    return checks.check_protocol(traces, rng())[0]


def test_protocol_rejects_shifted_estimate(traces):
    bad = list(traces)
    bad[5] = dataclasses.replace(bad[5], final_estimate=bad[5].final_estimate + 1e-4)
    assert _protocol_fails(bad)
    # a consistent shift of the first round is caught by the repeated runs
    bad = [dataclasses.replace(t, rounds=(dataclasses.replace(
        t.rounds[0], estimate=t.rounds[0].estimate + 1e-4),) + t.rounds[1:])
        for t in traces]
    assert _protocol_fails(bad)


def test_protocol_rejects_lost_robustness(traces):
    n = 2 * workloads.PAIRED_SEEDS
    bad = [dataclasses.replace(t, converged=(k % 2 == 0)) if k < n else t
           for k, t in enumerate(traces)]
    assert _protocol_fails(bad)


def test_protocol_rejects_inefficient_ensemble(traces):
    n = 2 * workloads.PAIRED_SEEDS
    mean = np.mean([t.final_estimate for t in traces[n:]])
    bad = traces[:n] + [_final(t, mean + 10.0 * (t.final_estimate - mean))
                        for t in traces[n:]]
    assert _protocol_fails(bad)


def _features_fail(report, d_loss):
    return checks.check_features((report, d_loss), rng())[0]


def test_features_reject_scaled_profile(feature_output):
    value, bracket, (ds, profile) = feature_output[1]
    bad = (value, bracket, (ds, profile * 1.001))
    assert _features_fail(feature_output[0], bad)


def test_features_reject_wrong_class_and_bracket(feature_output):
    report, d_loss = feature_output
    classes = dict(report.classifications)
    classes[0.1] = "peak"
    bad = dataclasses.replace(report, classifications=classes)
    assert _features_fail(bad, d_loss)
    lo, hi = report.d_peak_bracket
    bad = dataclasses.replace(report, d_peak_bracket=(lo - 1e-3, hi))
    assert _features_fail(bad, d_loss)
    lo, hi = report.d_bump_bracket
    bad = dataclasses.replace(report, d_bump=hi + 1e-4)
    assert _features_fail(bad, d_loss)


def test_features_reject_d_loss_outside_bracket(feature_output):
    value, (lo, hi), curve = feature_output[1]
    assert _features_fail(feature_output[0], (hi + 1e-3, (lo, hi), curve))
