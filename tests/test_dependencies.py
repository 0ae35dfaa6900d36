"""The package's only third-party dependency is numpy (README, pyproject.toml):
every module of src/alorat imports from the standard library, numpy and
alorat alone."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "alorat"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "alorat"}


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(set(_imported_roots(tree)) - ALLOWED) == []
