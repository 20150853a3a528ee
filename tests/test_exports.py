import importlib
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


def test_source_stays_within_its_line_budget():
    # a size budget: new code pays for itself by deleting what only tests reach
    sources = Path(simplexgates.__file__).parent.glob("*.py")
    assert sum(len(p.read_text().splitlines()) for p in sources) <= 2000
