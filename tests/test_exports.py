"""The public names of the package."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cvgeo

MODULES = ["cvgeo"] + [f"cvgeo.{info.name}" for info in pkgutil.iter_modules(cvgeo.__path__)]
ROOT = Path(__file__).resolve().parents[1]


def _names_read(paths) -> set:
    """The names and attributes that the code of the files reads.  A
    definition, an assignment target, an import and an `__all__` string are
    not reads."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name removed from a module must leave its __all__ too (the CLI
    # module declares none)
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == [], name


def test_every_exported_name_is_used_by_the_package_or_the_benchmark():
    # the library holds what the package and the benchmark call; what only
    # the tests read lives with them (tests/oracles.py)
    read = _names_read(sorted((ROOT / "src" / "cvgeo").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))
    unused = [f"{name}.{export}" for name in MODULES
              for export in getattr(importlib.import_module(name), "__all__", ()) if export not in read]
    assert unused == []
