import importlib
import pkgutil

import pytest

import simplexgates

MODULES = [m.name for m in pkgutil.iter_modules(simplexgates.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    # a name deleted from a module must leave its __all__ with it
    mod = importlib.import_module(f"simplexgates.{module}")
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []
