import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import topoqed

# __main__ runs the command line when imported.
MODULES = sorted(m.name for m in pkgutil.iter_modules(topoqed.__path__) if m.name != "__main__")

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def unused_imports(path: Path) -> list[str]:
    """Names that a file imports and never reads, from its syntax tree.

    A name listed in ``__all__`` counts as read; ``from __future__`` imports
    are directives, not names.
    """
    imported, read = {}, set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
            read.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "topoqed").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = [entry for path in files for entry in unused_imports(path)]
    assert not unused, f"imported but never used: {unused}"


def imported_modules(path: Path) -> set[str]:
    """The modules a file imports anywhere, ``topoqed.`` and relative prefixes removed."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.removeprefix("topoqed.") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module in (None, "topoqed"):  # from . import x, from topoqed import x
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module.removeprefix("topoqed."))
    return names


def test_command_modules_import_neither_the_oracle_nor_validate():
    # The Fock-space oracle and the checks built on it stay off the path
    # that the commands run.
    layers = ("qcore", "wire", "circuit", "interface", "dynamics", "config", "output")
    imports = {name: imported_modules(ROOT / "src" / "topoqed" / f"{name}.py") for name in layers}
    offenders = {name: sorted(found & {"oracle", "validate"}) for name, found in imports.items()
                 if found & {"oracle", "validate"}}
    assert not offenders, f"command modules import the oracle or validate: {offenders}"
