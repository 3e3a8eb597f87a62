"""The export lists: every exported name exists, the package imports no
layer, and each error class has one definition (instrumentation that
walks ``__all__`` skips a name it cannot find, so a stale entry would go
unnoticed)."""

import ast
import collections
import importlib
import json
import os
import pathlib
import subprocess
import sys

import dmchain

MODULES = ("chain", "cli", "errors", "features", "fisher", "multiparam",
           "protocol", "quadrature", "sweep")


def test_exports_exist_and_package_imports_no_layer():
    tree = ast.parse(pathlib.Path(dmchain.__file__).read_text())
    assert [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []
    errors = {}
    for name in MODULES:
        mod = importlib.import_module("dmchain." + name)
        assert [a for a in mod.__all__ if not hasattr(mod, a)] == [], name
        for attr in mod.__all__:
            value = getattr(mod, attr)
            if isinstance(value, type) and issubclass(value, Exception):
                errors.setdefault(attr, set()).add(value)
    # a re-exported error is the same class under every module's name ...
    assert [a for a, classes in errors.items() if len(classes) > 1] == []
    # ... and its class statement appears once in the package
    defined = collections.Counter(
        node.name
        for path in pathlib.Path(dmchain.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef))
    assert {a: defined[a] for a in errors if defined[a] != 1} == {}


def test_submodules_are_not_shadowed():
    from dmchain import sweep
    import dmchain.sweep as m

    assert sweep is m is sys.modules["dmchain.sweep"]
    assert callable(m.sweep) and m.sweep.__module__ == "dmchain.sweep"


def test_module_imports_are_used():
    # every module-level import is read in its module or re-exported
    unused = []
    for path in sorted(pathlib.Path(dmchain.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set(importlib.import_module("dmchain." + path.stem).__all__)
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += ["%s: %s" % (path.name, b) for b in bound
                       if b not in read and b not in exported]
    assert unused == []


def test_no_module_imports_another_modules_private_names():
    # a name shared between modules, or with a script, carries no
    # underscore; dunders such as __version__ are the language's, not a
    # module's private names
    root = pathlib.Path(__file__).resolve().parent.parent
    scripts = sorted((root / "scripts").glob("*.py"))
    assert scripts
    private = []
    package = sorted(pathlib.Path(dmchain.__file__).parent.glob("*.py"))
    for path in package + scripts:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("dmchain")):
                private += ["%s: %s" % (path.name, a.name) for a in node.names
                            if a.name.startswith("_")
                            and not a.name.startswith("__")]
    assert private == []


TRACED_CALLS = """
import importlib, importlib.util, json, sys, warnings

spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
chain, features, fisher, multiparam, protocol, sweep = (
    importlib.import_module("dmchain." + m) for m in
    ("chain", "features", "fisher", "multiparam", "protocol", "sweep"))

trace = tracer.Tracer().install()
trace.active = True
warnings.simplefilter("ignore")
p = chain.ChainParams(0.5, 0.7, 0.1)
fisher.fisher_point(p, "J")
fisher.magnetization_fi(p, "J")
fisher.qfi_xstate(p, "J")
multiparam.qfi_matrix(p)
multiparam.uhlmann_matrix(p)
sweep.sweep(sweep.SweepSpec("J", (-2.0, 2.0, 21), {"gamma": 0.7, "D": 0.1},
                            quantities=sweep.SWEEP_QUANTITIES))
features.default_curve(0.2, 0.1, points=21)
features.detect_d_loss(0.2, (0.0, 0.3), d_points=5, j_points=21)
protocol.adaptive_run(protocol.ProtocolConfig(
    J_true=0.7, gamma=0.7, D=0.1, J_guess=0.6, shots=1000, rounds=2,
    grid=(-2.5, 2.5, 41), seed=1))
print(json.dumps(trace.metrics()))
"""


def test_benchmark_tracer_runs_over_the_package():
    # The tracer wraps every function in an __all__ and reads the
    # ChainParams of each fisher call made beneath a features span; the
    # layer's shared names take ChainPoints and must stay unwrapped.
    # install() rebinds names for the whole process, hence the subprocess.
    root = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CALLS,
         str(root / "perfbench" / "tracer.py")],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["features.curve_points"] == 0
    assert metrics["multiparam.calls"] == 2
    assert metrics["protocol.runs"] == 1
