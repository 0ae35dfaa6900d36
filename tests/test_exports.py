"""Every name a module of the package exports resolves, and each name has
one import path: through its module, never through the package."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import alorat

PACKAGE = Path(alorat.__file__).resolve().parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(alorat.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"alorat.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_namespace_is_the_docstring_only():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))] == []
    assert "__version__" not in {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _package_imports(name):
    """The modules of the package that ``alorat.<name>`` imports itself."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


@pytest.mark.parametrize("name", MODULES)
def test_a_module_loads_only_what_it_imports(name):
    expected, todo = set(), [name]
    while todo:
        module = todo.pop()
        if module not in expected:
            expected.add(module)
            todo.extend(_package_imports(module))
    code = (f"import sys; from alorat import {name}; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('alorat.'))))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == sorted(f"alorat.{m}" for m in expected)
