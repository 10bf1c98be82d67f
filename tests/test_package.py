import ast
import importlib
import importlib.util
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import topoqed
from topoqed.config import parse_config

# __main__ runs the command line when imported.
MODULES = sorted(m.name for m in pkgutil.iter_modules(topoqed.__path__) if m.name != "__main__")

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


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


def test_benchmark_documents_parse(monkeypatch):
    # The benchmark's device documents still write bath.rate_convention,
    # output.formats and schedule.fock_cutoff, each with the one value
    # that is accepted; a change that drops one of these keys from the
    # config contract fails here, not in a benchmark run.
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    files, _ = workloads.make_inputs("gate_k9_dense", seed=1)
    dense = json.loads(files["inputs/gate.json"])
    assert dense["schedule"]["k"] == 9
    for doc in (workloads.device_config(), dense):
        assert doc["bath"]["rate_convention"] == "plain"
        with pytest.warns(UserWarning, match="schedule.fock_cutoff is ignored"):
            config = parse_config(doc)
        assert (config.kappa, config.gamma) == (1e6, 1e6)


def test_ci_run_blocks_pass_bash_syntax_check():
    # The workflow runs only on a CI runner, so each shell step is at least
    # parsed where the tests run.
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    blocks = [(step.get("name", step["run"]), step["run"])
              for job in workflow["jobs"].values() for step in job["steps"] if "run" in step]
    assert blocks
    errors = {}
    for name, script in blocks:
        res = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True)
        if res.returncode != 0:
            errors[name] = res.stderr
    assert not errors, f"run blocks that bash -n refuses: {errors}"


def test_sources_parse_as_python_3_10():
    # Python 3.10 is the oldest version pyproject.toml admits, and a test run
    # on a newer interpreter would not see syntax that 3.10 refuses.
    files = [path for folder in ("src", "tests", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert ROOT / "perfbench" / "workloads.py" in files
    errors = []
    for path in files:
        try:
            ast.parse(path.read_text(), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            errors.append(f"{path.relative_to(ROOT)}:{exc.lineno} {exc.msg}")
    assert not errors, f"syntax newer than Python 3.10: {errors}"
