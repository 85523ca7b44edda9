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


ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    # the benchmark's per-layer metrics read zero for a patched name that is gone
    missing = []
    for _, module, attr_path in _tracer().TARGETS:
        owner = importlib.import_module(module)
        for attr in attr_path.split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(f"{module}.{attr_path}")
    assert not missing, f"perfbench/tracer.py patches undefined names {missing}"


def _top_level_names(stmt):
    """The names a top-level statement of a module binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _referenced(tree):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_exported_names_are_reached_by_the_program():
    # src/ holds what a run, a study or the CLI reaches, and what the benchmark
    # imports or patches; test oracles and test-only quantities live in tests/.
    # A name counts as reached when src/ code other than its own definition names
    # it (an import alone does not), when perfbench/tracer.py patches it, or when a
    # perfbench/ module imports it.
    modules = {p.stem: ast.parse(p.read_text())
               for p in sorted((ROOT / "src" / "rarewave").glob("*.py"))
               if p.name != "__init__.py"}
    # each top-level statement of src/: its module, the names it binds, the names it uses
    statements = [(name, _top_level_names(stmt), _referenced(stmt))
                  for name, tree in modules.items() for stmt in tree.body]
    reached = {attr_path.split(".")[0] for _, _, attr_path in _tracer().TARGETS}
    for p in (ROOT / "perfbench").glob("*.py"):
        reached |= {a.name for node in ast.walk(ast.parse(p.read_text()))
                    if isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("rarewave") for a in node.names}
    unreached = []
    for module, tree in modules.items():
        exported = [name for stmt in tree.body if "__all__" in _top_level_names(stmt)
                    for name in ast.literal_eval(stmt.value)]
        for name in exported:
            used = any(name in refs for owner, binds, refs in statements
                       if not (owner == module and name in binds) and "__all__" not in binds)
            if not (used or name in reached):
                unreached.append(f"{module}.{name}")
    assert not unreached, (f"names in src/ that no run, study, CLI command or benchmark "
                           f"file reaches: {unreached}")


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
