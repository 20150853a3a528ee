import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import simplexgates

MODULES = [m.name for m in pkgutil.iter_modules(simplexgates.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    # a name deleted from a module must leave its __all__ with it
    mod = importlib.import_module(f"simplexgates.{module}")
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


def test_package_root_exports_exactly_the_modules_names():
    # one from-import-star per module: each name in an __all__, the very object, and nothing else
    modules = [importlib.import_module(f"simplexgates.{module}") for module in MODULES]
    declared = {name: getattr(mod, name) for mod in modules for name in getattr(mod, "__all__", [])}
    public = {name: value for name, value in vars(simplexgates).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(public) == sorted(declared)
    assert [name for name, value in declared.items() if public[name] is not value] == []


def test_source_stays_within_its_line_budget():
    # a size budget: new code pays for itself by deleting what only tests reach
    sources = Path(simplexgates.__file__).parent.glob("*.py")
    assert sum(len(p.read_text().splitlines()) for p in sources) <= 2000
