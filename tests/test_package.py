import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import topoqed

# __main__ runs the command line when imported.
MODULES = sorted(m.name for m in pkgutil.iter_modules(topoqed.__path__) if m.name != "__main__")

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"topoqed.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing, f"topoqed.{name}.__all__ names missing attributes {missing}"


def traced_names() -> dict:
    """The benchmark tracer's ``TRACED`` table, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_every_traced_name_exists():
    # The tracer looks each name up with getattr; a simplification that
    # deletes one would otherwise show only in the benchmark's smoke runs.
    missing = [f"topoqed.{layer}.{name}" for layer, names in traced_names().items()
               for name in names
               if not hasattr(importlib.import_module(f"topoqed.{layer}"), name)]
    assert not missing, f"names the benchmark tracer wraps are missing: {missing}"
