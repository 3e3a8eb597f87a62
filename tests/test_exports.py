"""The export lists: every exported name exists, and the package imports
only exported names (instrumentation that walks ``__all__`` skips a name
it cannot find, so a stale entry would go unnoticed)."""

import ast
import importlib
import pathlib

import dmchain

MODULES = ("chain", "cli", "features", "fisher", "multiparam", "protocol",
           "quadrature", "sweep")


def test_exports_exist_and_cover_package_imports():
    exported = {}
    for name in MODULES:
        mod = importlib.import_module("dmchain." + name)
        exported[name] = set(mod.__all__)
        assert [a for a in mod.__all__ if not hasattr(mod, a)] == [], name
    tree = ast.parse(pathlib.Path(dmchain.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} == set(MODULES) - {"cli"}
    for node in imports:
        names = {alias.name for alias in node.names}
        assert names <= exported[node.module], names - exported[node.module]


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
