import ast
import importlib
import importlib.util
import pkgutil
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
