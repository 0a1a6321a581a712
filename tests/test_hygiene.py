"""Static checks over the package source.

* No ``assert`` statements: a runtime contract must be a real check that
  raises a typed error, not one that ``python -O`` strips.
* No unused module-level imports.  An import kept on purpose (for example
  a module attribute that a tracer wraps by name) carries ``# noqa: F401``.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "yieldcrit"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree):
    """(name, node) for each name bound by a module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node


def _used_names(tree):
    """Names read anywhere in the module, plus the strings of ``__all__``."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "criterion.py", "calibration.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    found = [n.lineno for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)]
    assert not found, f"{path.name}: assert statements at lines {found}"


def _unused_imports(text):
    """Module-level imported names never read and not marked ``# noqa: F401``."""
    lines = text.splitlines()
    tree = ast.parse(text)
    used = _used_names(tree)
    return [
        f"{name} (line {node.lineno})"
        for name, node in _imported_names(tree)
        if name not in used
        and not any("noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1))
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name}: unused imports {unused}"


def test_unused_imports_are_found():
    text = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from json import (  # noqa: F401\n    dumps,\n)\n"
        "from numpy import array as arr, ndarray\n"
        "__all__ = [\"ndarray\"]\n"
        "x: os.PathLike = arr(1)\n"
    )
    assert _unused_imports(text) == ["math (line 2)"]
