"""Static checks over the package source.

* No ``assert`` statements: a runtime contract must be a real check that
  raises a typed error, not one that ``python -O`` strips.
* No unused module-level imports.  An import kept on purpose (for example
  a module attribute that a tracer wraps by name) carries ``# noqa: F401``.
* Every module attribute that perfbench's tracer wraps by name exists.
* ``convexity.py`` never switches on a shape or meridian class with
  ``isinstance``: each record states its own convexity condition.
* Nor does ``calibration.py``: each record gives the partials and the
  penalty terms that the fit's residuals read of it.
"""

import ast
import importlib
import pathlib

import pytest

from yieldcrit.criterion import SHAPE_KINDS

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "yieldcrit"
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


RECORD_CLASSES = {"CapMeridian", "LinearMeridian", *(cls.__name__ for cls in SHAPE_KINDS.values())}


def _record_type_switches(text):
    """Lines of ``isinstance`` calls whose class argument names a shape or meridian record."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            classes = node.args[1:]
            if classes and isinstance(classes[0], ast.Tuple):
                classes = classes[0].elts
            names = {getattr(c, "id", None) or getattr(c, "attr", None) for c in classes}
            if names & RECORD_CLASSES:
                found.append(node.lineno)
    return found


def test_certify_has_no_record_type_switch():
    assert not _record_type_switches((SRC / "convexity.py").read_text(encoding="utf-8"))


def test_fit_model_has_no_record_type_switch():
    assert not _record_type_switches((SRC / "calibration.py").read_text(encoding="utf-8"))


def test_record_type_switches_are_found():
    text = (
        "isinstance(x, float)\n"
        "isinstance(s, PowerLaw)\n"
        "isinstance(m, (int, criterion.CapMeridian))\n"
    )
    assert _record_type_switches(text) == [2, 3]


def _tracer_patches():
    """The (module, attribute, span) rows of ``PATCHES`` and ``CLI_PATCHES`` in
    perfbench/families.py, read from its source without importing perfbench."""
    tree = _tree(ROOT / "perfbench" / "families.py")
    rows = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("PATCHES", "CLI_PATCHES"):
                rows[name] = ast.literal_eval(node.value)
    assert set(rows) == {"PATCHES", "CLI_PATCHES"}
    return rows["PATCHES"] + rows["CLI_PATCHES"]


@pytest.mark.parametrize("mod, attr", [row[:2] for row in _tracer_patches()], ids="{}".format)
def test_tracer_patch_targets_exist(mod, attr):
    # --trace 1 wraps each yieldcrit.<mod>.<attr> by name and stops with an
    # AttributeError if a refactor drops one
    module = importlib.import_module(f"yieldcrit.{mod}")
    assert callable(getattr(module, attr, None)), f"yieldcrit.{mod} has no attribute {attr!r}"
