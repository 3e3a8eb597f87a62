"""The scripts under scripts/ run to completion against the library."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("argv", [
    # fig5's gamma = 0.2 sweep is fig4's, so the second reuses the first
    ["make_figures.py", "--only", "fig4", "fig5", "--out", "figures"],
    ["protocol_demo.py"],
    ["saturation_scan.py", "--points", "21"],
], ids=lambda argv: argv[0])
def test_script_exits_cleanly(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", argv[0])] + argv[1:],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_protocol_demo_takes_an_explicit_grid(tmp_path):
    # the grid is lo:hi:n as in `dmchain protocol --grid`, n an integer
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    script = os.path.join(ROOT, "scripts", "protocol_demo.py")
    proc = subprocess.run(
        [sys.executable, script, "--grid=-1.5:1.5:301", "--rounds", "2"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "final: J = " in proc.stdout
    bad = subprocess.run(
        [sys.executable, script, "--grid=-1.5:1.5:301.5"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert bad.returncode == 2 and "--grid" in bad.stderr
