"""Every name a module of the package exports resolves."""

import importlib
import pkgutil

import pytest

import alorat

MODULES = sorted(info.name for info in pkgutil.iter_modules(alorat.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"alorat.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
