"""Command line interface: formats, exit codes, determinism."""

import json
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import dmchain
from dmchain.cli import main


def run_cli(capsys, *argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ single points

def test_state_json(capsys):
    code, out, _ = run_cli(capsys, "state", "--J", "0.5", "--gamma", "0.7",
                           "--D", "0.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["mz"] == pytest.approx(0.97055083320487, abs=1e-10)
    p = payload["probabilities"]
    assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)
    assert p["ud"] == p["du"]


def test_state_csv(capsys):
    code, out, _ = run_cli(capsys, "state", "--J", "0.5", "--gamma", "0.7",
                           "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.split(",")[:4] == ["J", "gamma", "D", "mz"]
    assert len(row.split(",")) == len(header.split(","))


def test_fisher_json(capsys):
    code, out, _ = run_cli(capsys, "fisher", "--J", "0.5", "--gamma", "0.7",
                           "--D", "0.1", "--wrt", "J")
    assert code == 0
    payload = json.loads(out)
    assert payload["F"] <= payload["H"] + 1e-9
    assert payload["S"] == pytest.approx(payload["F"] / payload["H"], rel=1e-9)
    assert payload["H"] == pytest.approx(payload["H1"] + payload["H2"], abs=1e-12)


def test_fisher_csv_keeps_wrt_label(capsys):
    code, out, _ = run_cli(capsys, "fisher", "--J", "0.5", "--gamma", "0.7",
                           "--wrt", "gamma", "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    idx = header.split(",").index("wrt")
    assert row.split(",")[idx] == "gamma"


def test_custom_tolerance(capsys):
    code, out, _ = run_cli(capsys, "fisher", "--J", "0.5", "--gamma", "0.7",
                           "--tol", "1e-8")
    assert code == 0
    assert json.loads(out)["H"] == pytest.approx(0.6166710859638, rel=1e-6)


# ------------------------------------------------------------------- sweeps

def test_sweep_csv_stdout(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--axis", "J", "--range",
                           "0.2:0.4:3", "--gamma", "0.5", "--D", "0.0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "J,F,H,S,error"
    assert len(lines) == 4


def test_sweep_out_file(capsys, tmp_path):
    target = os.path.join(tmp_path, "t.csv")
    # leading-dash range values need the = form to get past argparse
    code, out, _ = run_cli(capsys, "sweep", "--axis", "D",
                           "--range=-0.1:0.1:3", "--J", "0.5",
                           "--gamma", "0.5", "--out", target)
    assert code == 0
    assert out == ""
    with open(target) as fh:
        assert fh.readline().strip() == "D,F,H,S,error"


def test_sweep_axis_conflicts(capsys):
    code, _, err = run_cli(capsys, "sweep", "--axis", "J", "--range",
                           "0:1:3", "--J", "0.5", "--gamma", "0.5", "--D", "0.0")
    assert code == 2
    assert "conflicts" in err
    code, _, err = run_cli(capsys, "sweep", "--axis", "J", "--range",
                           "0:1:3", "--gamma", "0.5")
    assert code == 2
    assert "missing fixed value" in err


def test_bad_range_string(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--axis", "J", "--range", "0..1", "--gamma", "0.5",
              "--D", "0.0"])
    assert exc.value.code == 2


# --------------------------------------------------------------- multiparam

def test_qfim_json_with_crb(capsys):
    code, out, _ = run_cli(capsys, "qfim", "--J", "0.5", "--gamma", "0.7",
                           "--D", "0.1", "--shots", "1000")
    assert code == 0
    payload = json.loads(out)
    assert payload["det"] > 0.0
    assert len(payload["qfim"]) == 3
    assert len(payload["crb"]) == 3
    assert payload["shots"] == 1000
    assert payload["eigenvalues"][0] >= payload["eigenvalues"][2]


def test_qfim_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "qfim", "--J", "0.5", "--gamma", "0.7",
                           "--D", "0.1", "--format", "csv")
    assert code == 0
    header = out.split("\n")[0].split(",")
    assert header[0] == "QFIM_J_J"
    assert "condition_ratio" in header
    assert len(header) == 11


def test_qfim_evaluates_its_point_once(capsys, monkeypatch):
    # one quadrature pass and one eigendecomposition, even with a bound
    import dmchain.multiparam as multiparam

    calls = {"chain_point": 0, "eigvalsh": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(multiparam, "chain_point")
    counting(np.linalg, "eigvalsh")
    code, _, _ = run_cli(capsys, "qfim", "--J", "0.5", "--gamma", "0.7",
                         "--D", "0.1", "--shots", "1000")
    assert code == 0
    assert calls == {"chain_point": 1, "eigvalsh": 1}


def test_qfim_singular_exit(capsys):
    # the D = 0 information matrix has an exactly flat direction, so the
    # requested covariance bound does not exist
    code, _, err = run_cli(capsys, "qfim", "--J", "0.5", "--gamma", "0.7",
                           "--D", "0.0", "--shots", "100")
    assert code == 3
    assert "numerical failure" in err


# ----------------------------------------------------------------- protocol

def test_protocol_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["protocol", "--J", "0.9", "--gamma", "1.0", "--J-guess", "0.9"])
    assert exc.value.code == 2


def test_protocol_has_no_sign_switch(capsys):
    # every later round measures at the running estimate; no flag flips it
    with pytest.raises(SystemExit) as exc:
        main(["protocol", "--J", "0.9", "--gamma", "1.0", "--J-guess", "0.9",
              "--seed", "0", "--sign-switch"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sign-switch" in capsys.readouterr().err


def test_protocol_jsonl_and_summary(capsys, tmp_path):
    target = os.path.join(tmp_path, "trace.jsonl")
    code, out, _ = run_cli(capsys, "protocol", "--J", "0.9", "--gamma", "1.0",
                           "--D", "0.0", "--J-guess", "0.9", "--shots", "1000",
                           "--rounds", "2", "--grid", "0.02:2.5:801",
                           "--seed", "3", "--out", target)
    assert code == 0
    summary = json.loads(out)
    assert summary["rounds"] == 2
    with open(target) as fh:
        lines = [json.loads(line) for line in fh]
    assert [r["round"] for r in lines] == [1, 2]
    assert all(sum(r["counts"]) == 1000 for r in lines)


def test_protocol_stdout_trace(capsys):
    code, out, err = run_cli(capsys, "protocol", "--J", "0.9", "--gamma", "1.0",
                             "--D", "0.0", "--J-guess", "0.9", "--shots", "1000",
                             "--rounds", "2", "--grid", "0.02:2.5:801",
                             "--seed", "3")
    assert code == 0
    assert len(out.strip().split("\n")) == 2
    assert "final_estimate" in err


def test_protocol_deterministic(capsys, tmp_path):
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        target = os.path.join(tmp_path, name)
        run_cli(capsys, "protocol", "--J", "0.9", "--gamma", "1.0",
                "--D", "0.0", "--J-guess", "0.9", "--shots", "1000",
                "--rounds", "2", "--grid", "0.02:2.5:801", "--seed", "7",
                "--out", target)
        with open(target, "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]


def test_protocol_flat_likelihood_round(capsys):
    # all-up counts on a gamma = 0 chain: the likelihood is flat over
    # [-1, 1], and the round's at_edge flag must still serialize
    code, out, _ = run_cli(capsys, "protocol", "--J", "0.5", "--gamma", "0",
                           "--J-guess", "1", "--seed", "0", "--shots", "100",
                           "--rounds", "2", "--grid=-1.5:1.5:61")
    assert code == 0
    rec = json.loads(out.strip().split("\n")[0])
    assert rec["at_edge"] is False
    assert rec["counts"] == [100, 0, 0, 0]


# ----------------------------------------------------------------- features

def test_features_json(capsys):
    code, out, _ = run_cli(capsys, "features", "--gamma", "0.2",
                           "--D", "0.2,0.3")
    assert code == 0
    payload = json.loads(out)
    assert payload["classifications"] == {"0.2": "peak", "0.3": "peak"}
    assert payload["d_bump"] is None  # no transition inside the scan


def test_features_zero_width_d_loss_range_is_invalid_spec(capsys):
    # --D 0.1 with no --scan leaves detect_d_loss the range (0.1, 0.1)
    code, _, err = run_cli(capsys, "features", "--gamma", "0.7", "--D", "0.1",
                           "--d-loss")
    assert code == 2
    assert "invalid spec" in err and "lo < hi" in err


def test_features_scan_needs_two_values(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["features", "--gamma", "0.2", "--D", "0.1",
              "--scan", "0:0.3:4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--scan" in err and "lo:hi" in err


# ------------------------------------------------------------------ figures

def test_figure_command(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "figure", "fig4", "--out", str(tmp_path))
    assert code == 0
    paths = out.strip().split("\n")
    assert len(paths) == 2
    for p in paths:
        assert os.path.exists(p)
    manifest = json.loads(open(paths[1]).read())
    assert manifest["figure"] == "fig4"


def test_unknown_figure_is_invalid_spec(capsys, tmp_path):
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "figure", "nope", "--out", str(out))
    assert code == 2 and stdout == ""
    assert "invalid spec" in err and "nope" in err
    assert all("fig%d" % i in err for i in range(1, 7))
    assert list(tmp_path.iterdir()) == []


def test_figure_help_names_the_figures(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "--help"])
    assert exc.value.code == 0
    assert "fig1 to fig6" in capsys.readouterr().out


# --------------------------------------------------------------- exit codes

def test_numerical_failure_exit(capsys):
    code, _, err = run_cli(capsys, "fisher", "--J", "1.0", "--gamma", "0.7")
    assert code == 3
    assert "numerical failure" in err


def test_invalid_spec_exit(capsys):
    code, _, err = run_cli(capsys, "state", "--J", "0.5", "--gamma", "1.5")
    assert code == 2
    assert "invalid spec" in err


def test_couplings_out_of_range_exit(capsys):
    code, _, err = run_cli(capsys, "state", "--J", "0.5", "--gamma", "0.5",
                           "--D", "1e155")
    assert code == 2
    assert "invalid spec: couplings must satisfy" in err


def test_parser_built_once_matches_fresh_parser(capsys, monkeypatch):
    from dmchain import cli

    assert cli.build_parser() is cli.build_parser()
    calls = [
        ["fisher", "--J", "0.5", "--gamma", "0.7", "--wrt", "D"],
        ["fisher", "--J", "0.5", "--gamma", "0.7"],
        ["sweep", "--axis", "D", "--range", "0:0.2:3", "--J", "0.5",
         "--gamma", "0.7", "--format", "json"],
        ["state", "--J", "0.5", "--gamma", "0.7", "--format", "csv"],
    ]
    shared = [run_cli(capsys, *argv) for argv in calls]
    # no flag of one call leaks into the next
    assert json.loads(shared[0][1])["wrt"] == "D"
    assert json.loads(shared[1][1])["wrt"] == "J"
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [run_cli(capsys, *argv) for argv in calls] == shared


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# -------------------------------------------------------------- entry point

def declared_entry_point():
    """The ``dmchain = "module:func"`` target from ``[project.scripts]``."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "pyproject.toml")
    with open(path) as fh:
        raw = fh.read()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: match the one line
        match = re.search(r'^dmchain\s*=\s*"([\w.]+):(\w+)"\s*$',
                          raw, re.MULTILINE)
        assert match, "no dmchain console script declared in pyproject.toml"
        return match.group(1), match.group(2)
    target = tomllib.loads(raw)["project"]["scripts"]["dmchain"]
    module, func = target.split(":")
    return module, func


def test_installed_entry_point(tmp_path):
    # run the declared console-script target in a fresh interpreter, the
    # way pip's generated wrapper does, so no install is needed
    module, func = declared_entry_point()
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(dmchain.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, env.get("PYTHONPATH")]))
    argv = ["state", "--J", "0.3", "--gamma", "0.5"]
    wrapper = "import sys; from %s import %s; sys.exit(%s())" % (
        module, func, func)
    proc = subprocess.run([sys.executable, "-c", wrapper] + argv,
                          capture_output=True, text=True, env=env,
                          cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["gzz"] > 0.0

    installed = shutil.which("dmchain")
    if installed is not None:
        script = subprocess.run([installed] + argv, capture_output=True,
                                text=True, cwd=str(tmp_path))
        assert script.returncode == 0, script.stderr
        assert script.stdout == proc.stdout


FRESH_START = """
import json, sys, warnings
import dmchain.cli
warnings.simplefilter("ignore")

def loaded(prefix):
    return sorted(m for m in sys.modules if m.split(".")[0] == prefix)

assert dmchain.cli.main(["state", "--J", "0.3", "--gamma", "0.5"]) == 0
after_state = loaded("dmchain")
assert dmchain.cli.main(sys.argv[1:]) == 0
masked = [m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")]
print(json.dumps([after_state, loaded("dmchain"), loaded("scipy"), masked]))
"""


def fresh_start(tmp_path, *argv):
    """The ``dmchain*`` modules loaded in a fresh interpreter after
    ``import dmchain.cli`` and a ``state`` point, the ``dmchain*`` modules
    loaded once ``argv`` has run as well, and the scipy and ``numpy.ma``
    modules loaded."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(dmchain.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run([sys.executable, "-c", FRESH_START] + list(argv),
                          capture_output=True, text=True, env=env,
                          cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    after_state, after, scipy, masked = json.loads(proc.stdout.splitlines()[-1])
    return set(after_state), set(after), scipy, masked


def test_cli_imports_no_scipy(tmp_path):
    # every dmchain start pays for what the CLI imports; scipy alone would
    # add over a second, so no command may need it.  numpy loads numpy.ma
    # lazily, from np.unique among others, for about 1.3 MB of peak memory
    _, _, scipy, masked = fresh_start(tmp_path, "features", "--gamma", "0.7",
                                      "--D", "0.1,0.3", "--d-loss")
    assert scipy == []
    assert masked == []


STATE_LAYERS = {"dmchain", "dmchain.cli", "dmchain.chain", "dmchain.errors",
                "dmchain.quadrature"}


@pytest.mark.parametrize("argv, layers", [pytest.param(*case, id=case[0][0]) for case in [
    (["state", "--J", "0.5", "--gamma", "0.7"], set()),
    (["fisher", "--J", "0.5", "--gamma", "0.7"], {"fisher"}),
    (["qfim", "--J", "0.5", "--gamma", "0.7", "--D", "0.1"],
     {"fisher", "multiparam"}),
    (["sweep", "--axis", "D", "--range", "0:0.2:3", "--J", "0.5",
      "--gamma", "0.7"], {"fisher", "multiparam", "sweep"}),
    (["protocol", "--J", "0.7", "--gamma", "0.7", "--D", "0.1",
      "--J-guess", "0.6", "--shots", "1000", "--rounds", "2",
      "--grid=-2.5:2.5:41", "--seed", "1"], {"fisher", "protocol"}),
    (["features", "--gamma", "0.7", "--D", "0.1,0.3"],
     {"features", "fisher"}),
    (["figure", "fig4", "--out", "fig"], {"fisher", "multiparam", "sweep"}),
]] + [pytest.param(["qfim", "--J", "0.5", "--gamma", "0.7", "--D", "0.1",
                    "--format", "csv"], {"fisher", "multiparam"}, id="qfim-csv")])
def test_command_loads_only_its_layers(tmp_path, argv, layers):
    # a start compiles each module it loads, so a command loads the
    # layers it runs and no other
    after_state, after, scipy, masked = fresh_start(tmp_path, *argv)
    assert after_state == STATE_LAYERS
    assert after == STATE_LAYERS | {"dmchain." + m for m in layers}
    assert scipy == []
    assert masked == []
