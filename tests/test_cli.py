"""Command line interface: formats, exit codes, determinism."""

import json
import os
import re
import shutil
import subprocess
import sys
import warnings

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
    import dmchain.multiparam as multiparam

    calls = []
    real = multiparam.chain_point

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(multiparam, "chain_point", counting)
    code, _, _ = run_cli(capsys, "qfim", "--J", "0.5", "--gamma", "0.7",
                         "--D", "0.1", "--shots", "1000")
    assert code == 0
    assert len(calls) == 1


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


# ----------------------------------------------------------------- features

def test_features_json(capsys):
    code, out, _ = run_cli(capsys, "features", "--gamma", "0.2",
                           "--D", "0.2,0.3")
    assert code == 0
    payload = json.loads(out)
    assert payload["classifications"] == {"0.2": "peak", "0.3": "peak"}
    assert payload["d_bump"] is None  # no transition inside the scan


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


# --------------------------------------------------------------- exit codes

def test_numerical_failure_exit(capsys):
    code, _, err = run_cli(capsys, "fisher", "--J", "1.0", "--gamma", "0.7")
    assert code == 3
    assert "numerical failure" in err


def test_invalid_spec_exit(capsys):
    code, _, err = run_cli(capsys, "state", "--J", "0.5", "--gamma", "1.5")
    assert code == 2
    assert "invalid spec" in err


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
