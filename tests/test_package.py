import importlib
import pkgutil

import pytest

import topoqed

# __main__ runs the command line when imported.
MODULES = sorted(m.name for m in pkgutil.iter_modules(topoqed.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"topoqed.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing, f"topoqed.{name}.__all__ names missing attributes {missing}"
