import ast
import importlib
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rarewave

MODULES = sorted(m.name for m in pkgutil.iter_modules(rarewave.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"rarewave.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"rarewave.{name}.__all__ lists undefined names {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(rarewave.__file__).read_text())
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            module = importlib.import_module(f"rarewave.{node.module}")
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if not hasattr(module, a.name)]
    assert not missing, f"rarewave/__init__.py imports undefined names {missing}"


def test_tracer_targets_resolve():
    # the benchmark's per-layer metrics read zero for a patched name that is gone
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, module, attr_path in tracer.TARGETS:
        owner = importlib.import_module(module)
        for attr in attr_path.split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(f"{module}.{attr_path}")
    assert not missing, f"perfbench/tracer.py patches undefined names {missing}"


def test_runtime_needs_numpy_only():
    # a fresh interpreter imports every module of the package; the top-level
    # modules that this adds must come from the standard library or numpy
    # (modules a site hook imports at start-up are not the package's, and
    # __mp_main__ is the name multiprocessing gives __main__)
    code = ("import importlib, pkgutil, sys\n"
            "before = set(sys.modules)\n"
            "import rarewave\n"
            "for m in pkgutil.iter_modules(rarewave.__path__):\n"
            "    importlib.import_module('rarewave.' + m.name)\n"
            "print(' '.join({n.split('.')[0] for n in set(sys.modules) - before}))\n")
    added = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True).stdout.split()
    assert "numpy" in added
    foreign = set(added) - set(sys.stdlib_module_names) - {"numpy", "rarewave", "__mp_main__"}
    assert not foreign, f"importing rarewave loads non-numpy dependencies {sorted(foreign)}"
