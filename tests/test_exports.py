import ast
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


def _names(source):
    # every identifier a module's code binds, reads or imports; not its strings
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            yield node.asname or node.name
        for field in ("id", "attr", "name", "arg"):
            if isinstance(getattr(node, field, None), str):
                yield getattr(node, field)


def test_only_tensor_names_the_residual_engines_internals():
    # the engine's buffers, compiled sides, probes and thread split stay in
    # tensor; the other modules reach residuals through tensor._distance
    internals = {"_program", "_replay", "_fill_state", "_halves", "_side_norms", "_KEPT"}
    sources = Path(simplexgates.__file__).parent.glob("*.py")
    named = {p.name: sorted(internals.intersection(_names(p.read_text())))
             for p in sources if p.name != "tensor.py"}
    assert {name: found for name, found in named.items() if found} == {}


def test_verify_imports_no_other_private_kernel_name():
    source = (Path(simplexgates.__file__).parent / "verify.py").read_text()
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "tensor"
                for alias in node.names}
    private = {name for name in imported if name.startswith("_")}
    assert private <= {"_distance", "_placed", "_unitarity", "_validated_sites"}
