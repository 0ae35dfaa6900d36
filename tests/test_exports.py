"""No module lists its names in ``__all__``, every name a caller takes from a
module resolves, and each name has one import path: through its module, never
through the package."""

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
REPO = Path(__file__).resolve().parent.parent


def _reached_names():
    """Each module of the package mapped to the names that the package's own
    modules, the benchmark and the demos take from it: ``module.name`` through
    an imported module, or ``from .module import name``."""
    reached = {name: set() for name in MODULES}
    callers = [PACKAGE.glob("*.py"), (REPO / "perfbench").glob("*.py"), (REPO / "demos").glob("*.py")]
    for path in sorted(p for group in callers for p in group):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if (node.level, node.module) in ((1, None), (0, "alorat")):
                aliases.update((a.asname or a.name, a.name) for a in node.names)
            elif node.level == 1 or (node.module or "").startswith("alorat."):
                reached[node.module.rpartition(".")[2]].update(a.name for a in node.names)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                reached[aliases[node.value.id]].add(node.attr)
    return reached


REACHED = _reached_names()


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    """Every name a caller takes from the module resolves, and no ``__all__``
    lists the public surface (the names without a leading underscore) a
    second time."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    assert not any(isinstance(n, ast.Name) and n.id == "__all__" and isinstance(n.ctx, ast.Store)
                   for n in ast.walk(tree))
    module = importlib.import_module(f"alorat.{name}")
    assert sorted(n for n in REACHED[name] if not hasattr(module, n)) == []


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
