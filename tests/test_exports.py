"""The public names of the package."""

import importlib
import pkgutil

import pytest

import cvgeo

MODULES = ["cvgeo"] + [f"cvgeo.{info.name}" for info in pkgutil.iter_modules(cvgeo.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name removed from a module must leave its __all__ too (the CLI
    # module declares none)
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == [], name
