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
* Each shape and meridian record has one formula body, ``_jet``, and no
  record class defines again a reader of it that ``_Shape`` or
  ``_Meridian`` defines once (``g``, ``dg``, ``d2g``, ``f``, ``df``, ...).
* Each rule of a fit problem's values is stated once, in ``calibration.py``;
  the CLI reports its message and holds no copy.
* The number rule and the count rule are stated once, in ``errors.py``: no
  other module tests ``isinstance(..., bool)``, ``numbers.Real`` or
  ``numbers.Integral``, or words a message ``f"{name} must be finite, got ..."``.
* Records are made in one place, ``invariants.Record``: no other module
  names ``dataclass`` or ``make_dataclass``, whose frozen form generates
  and compiles the methods of each class at import.
* No module holds CPython's wording for a call that does not bind: a
  record binds a call through its twin, a plain dataclass with the same
  fields, whose TypeError Python words for the running version.
* No module that the scalar commands or realize load imports
  ``dataclasses`` or ``inspect`` when it runs: a record class becomes a
  dataclass on first use, and only then are they imported.
* The deviatoric frame is built once, in ``invariants._frame``: the
  package compares against ``EPS_MERIDIAN`` once, divides by sin 3 theta
  (the s_tilde_perp formula, and so the theta gradient) in one statement,
  and writes ``sqrt(1.5)`` once.
* The invariants of one scalar state are computed in one place,
  ``invariants._state``, which keeps the last state's: no other function
  calls ``_invariant_body`` on plain floats (the array paths call it with
  numpy).
* The paper's excluded limits (gamma = 1, alpha in {0, 2}) are substituted
  by one rule, ``criterion._excluded_limits``: no other function holds the
  surrogate wording (``1-1e-9``, ``(piecewise-linear limit)``, ``(corner
  limit)``) or compares against ``GAMMA_LIMIT``.
* A Lode angle has one input rule: ``invariants._check_theta`` is
  ``namespace`` plus the range check, with no str/bytes branch and no
  ``_float_array`` call of its own, and only ``invariants.py`` names its
  range ends ``_THETA_LO`` and ``_THETA_HI``.
* The native shape's convexity has one gate, ``criterion._check_native_shape``:
  no other function words ``outside the convex interval for gamma``.
* A record of the wrong type is refused in one wording, ``errors._typed``'s
  (``certify needs a Criterion, got str``): no other module words one as
  ``must be a Criterion, got`` or ``needs a Criterion, got``.
"""

import ast
import importlib
import pathlib
import re

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


def _body_readers(tree) -> set:
    """The methods of ``_Shape`` and ``_Meridian`` that read the formula body ``_jet``."""
    return {
        f.name
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in ("_Shape", "_Meridian")
        for f in cls.body
        if isinstance(f, ast.FunctionDef)
        and any(isinstance(n, ast.Attribute) and n.attr == "_jet" for n in ast.walk(f))
    }


def _records_methods(tree) -> dict:
    """The method names of each shape and meridian record class, by class."""
    return {
        cls.name: {f.name for f in cls.body if isinstance(f, ast.FunctionDef)}
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in RECORD_CLASSES
    }


def _readers_redefined(text) -> list:
    """``Class.method`` for each record method that shadows a reader of ``_jet``."""
    tree = ast.parse(text)
    readers = _body_readers(tree)
    return [
        f"{name}.{method}"
        for name, methods in _records_methods(tree).items()
        for method in sorted(methods & readers)
    ]


def test_each_record_has_one_formula_body():
    tree = _tree(SRC / "criterion.py")
    assert _body_readers(tree) == {"g", "dg", "d2g", "f", "df"}
    methods = _records_methods(tree)
    assert set(methods) == RECORD_CLASSES
    assert all("_jet" in m for m in methods.values()), methods
    assert not _readers_redefined((SRC / "criterion.py").read_text(encoding="utf-8"))


def test_redefined_readers_are_found():
    text = (
        "class _Shape:\n"
        "    def g(self, theta):\n        return self._jet(theta)[0]\n"
        "    def to_dict(self):\n        return {}\n"
        "class PowerLaw(_Shape):\n"
        "    def _jet(self, theta):\n        return {0: 1.0}\n"
        "    def g(self, theta):\n        return 1.0\n"
        "    def to_dict(self):\n        return {}\n"
        "class Other(_Shape):\n"
        "    def g(self, theta):\n        return 1.0\n"
    )
    assert _readers_redefined(text) == ["PowerLaw.g"]


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


# a fragment of the message of each fit-problem value rule
FIT_RULES = (
    "free must be a list of parameter names",
    'count(seed, "seed", 0)',
    "must be [low, high], got",
    "each bound for",
    'f"init {name!r}"',
    "init must be an object of values by name",
)


def test_each_fit_problem_rule_has_one_home():
    sites = {
        rule: [path.name for path in MODULES for line in path.read_text(encoding="utf-8").splitlines() if rule in line]
        for rule in FIT_RULES
    }
    assert sites == {rule: ["calibration.py"] for rule in FIT_RULES}


def _number_rule_sites(text) -> list:
    """Lines that state a piece of the number or count rule: an ``isinstance``
    test against ``bool``, a use of ``numbers.Real`` or ``numbers.Integral``, or
    a message ``f"{name} must be finite, got ..."`` whose subject is a name."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(c, "id", None) == "bool" for c in classes):
                found.add(node.lineno)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "numbers":
            found.add(node.lineno)
        elif isinstance(node, ast.JoinedStr):
            pairs = zip(node.values, node.values[1:])
            if any(
                isinstance(a, ast.FormattedValue) and str(getattr(b, "value", "")).startswith(" must be finite, got")
                for a, b in pairs
            ):
                found.add(node.lineno)
    return sorted(found)


def test_the_number_rule_has_one_home():
    sites = {path.name: _number_rule_sites(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name for name, lines in sites.items() if lines} == {"errors.py"}, sites


def test_a_second_copy_of_the_number_rule_is_found():
    text = (
        "import numbers\n"
        "def _finite(value, what):\n"
        "    if isinstance(value, numbers.Real) and not isinstance(value, (bool, str)):\n"
        "        return float(value)\n"
        "    raise ValidationError(f\"{what} must be finite, got {value}\")\n"
        "ok = isinstance(x, (float, int)) and isinstance(n, numbers.Integral)\n"
        "row = f\"line {n}: values must be finite, got {line!r}\"\n"
    )
    assert _number_rule_sites(text) == [3, 5, 6]


def _dataclass_sites(text) -> list:
    """Lines that name ``dataclass`` or ``make_dataclass``: an import of either,
    a decorator, a call or an attribute."""
    makers = ("dataclass", "make_dataclass")
    found = set()
    for node in ast.walk(ast.parse(text)):
        if (
            (isinstance(node, ast.Name) and node.id in makers)
            or (isinstance(node, ast.Attribute) and node.attr in makers)
            or (isinstance(node, ast.ImportFrom) and any(a.name in makers for a in node.names))
        ):
            found.add(node.lineno)
    return sorted(found)


def test_records_are_made_in_one_place():
    sites = {path.name: _dataclass_sites(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name for name, lines in sites.items() if lines} == {"invariants.py"}, sites


def test_a_second_record_maker_is_found():
    text = (
        "from dataclasses import dataclass, fields\n"
        "import dataclasses\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n"
        "    x: float\n"
        "Pair = dataclasses.dataclass(type('Pair', (), {}))\n"
        "Made = dataclasses.make_dataclass('Made', ['x'])\n"
        "names = [f.name for f in fields(Point)]\n"
    )
    assert _dataclass_sites(text) == [1, 3, 6, 7]


# the pieces of CPython's wording for a call that does not bind
BINDING_WORDS = (
    "required positional argument",
    "unexpected keyword argument",
    "multiple values for argument",
    "positional argument",
)


def _binding_wording(text) -> list:
    """Lines that hold a piece of CPython's binding wording, in code, a string or a comment."""
    return [n for n, line in enumerate(text.splitlines(), 1) if any(w in line for w in BINDING_WORDS)]


def test_no_module_words_a_binding_error():
    sites = {path.name: _binding_wording(path.read_text(encoding="utf-8")) for path in MODULES}
    assert not any(sites.values()), sites


def test_a_copy_of_the_binding_wording_is_found():
    # the hand-written binder that the records' twins replaced
    text = (
        '    @classmethod\n'
        '    def _bind(cls, args: tuple, kwargs: dict) -> list:\n'
        '        """The field values of a call, bound as Python binds one to\n'
        '        ``__init__(self, <fields>)``: the same defaults, and a TypeError\n'
        '        worded as Python words it for a call that does not bind."""\n'
        '        names, defaults = cls._field_names, cls._defaults\n'
        '        where = f"{cls.__qualname__}.__init__()"\n'
        '        bound = dict(zip(names, args))\n'
        '        for name, value in kwargs.items():\n'
        '            if name not in names:\n'
        '                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")\n'
        '            if name in bound:\n'
        '                raise TypeError(f"{where} got multiple values for argument {name!r}")\n'
        '            bound[name] = value\n'
        '        if len(args) > len(names):\n'
        '            most = len(names) + 1  # self counts\n'
        '            takes = f"from {most - len(defaults)} to {most}" if defaults else str(most)\n'
        '            plural = "s" if defaults or most != 1 else ""\n'
        '            given = len(args) + 1\n'
        '            raise TypeError(f"{where} takes {takes} positional argument{plural} but {given} were given")\n'
        '        missing = [repr(name) for name in names if name not in bound and name not in defaults]\n'
        '        if missing:\n'
        '            if len(missing) > 2:\n'
        '                missing[-1] = f"and {missing[-1]}"\n'
        '            listed = ", ".join(missing) if len(missing) > 2 else " and ".join(missing)\n'
        '            plural = "s" if len(missing) > 1 else ""\n'
        '            raise TypeError(f"{where} missing {len(missing)} required positional argument{plural}: {listed}")\n'
        '        return [bound[name] if name in bound else defaults[name] for name in names]\n'
    )
    assert _binding_wording(text) == [11, 13, 20, 27]
    assert not _binding_wording("raise TypeError(f'{where} takes {takes} arguments')\n# a keyword argument\n")


# the modules every command loads, and limits, which realize loads
SCALAR_PATH = ["__init__.py", "errors.py", "invariants.py", "criterion.py", "convexity.py", "cli.py", "limits.py"]


def _eager_imports(text, modules=("dataclasses", "inspect")) -> list:
    """Lines that import one of ``modules`` when the module runs: at module
    level or in a class body, not inside a function."""
    found = []
    todo = list(ast.parse(text).body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.level == 0 else []
        else:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                todo.extend(ast.iter_child_nodes(node))
            continue
        if any(name.split(".")[0] in modules for name in names):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("name", SCALAR_PATH)
def test_the_scalar_path_imports_no_dataclasses_or_inspect(name):
    assert not _eager_imports((SRC / name).read_text(encoding="utf-8"))


def test_eager_imports_are_found():
    text = (
        "import os, inspect\n"
        "from dataclasses import replace\n"
        "import dataclasses.x as dc\n"
        "if True:\n    import inspect\n"
        "class R:\n    from dataclasses import fields\n"
        "def f():\n    import dataclasses\n"
        "from .inspect import x\n"
        "import inspector\n"
    )
    assert _eager_imports(text) == [1, 2, 3, 5, 7]


def _is_sin3(node) -> bool:
    """Whether ``node`` is sin 3 theta: a name ``sin3...`` or a call ``sin(3.0 * ...)``."""
    if isinstance(node, ast.Name):
        return node.id.startswith("sin3")
    if isinstance(node, ast.Call) and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "sin":
        arg = node.args[0] if node.args else None
        return isinstance(arg, ast.BinOp) and any(
            isinstance(side, ast.Constant) and side.value == 3 for side in (arg.left, arg.right)
        )
    return False


def _frame_sites(text) -> dict:
    """The first lines of the statements that compare against ``EPS_MERIDIAN``,
    that divide by sin 3 theta, that call ``sqrt(1.5)``, and that compute a
    Lode angle: a call of ``atan2`` or ``arctan2``, or a read of a name ``j3``
    (the acos form reads J3, directly or through a helper)."""
    found = {"meridian test": set(), "quotient by sin 3 theta": set(), "sqrt(1.5)": set(), "Lode angle": set()}
    for stmt in ast.walk(ast.parse(text)):
        if not isinstance(stmt, ast.stmt):
            continue
        # a compound statement owns its test, not its body
        own = stmt.test if isinstance(stmt, (ast.If, ast.While)) else None if hasattr(stmt, "body") else stmt
        for node in ast.walk(own) if own is not None else ():
            called = isinstance(node, ast.Call) and (getattr(node.func, "attr", None) or getattr(node.func, "id", None))
            if isinstance(node, ast.Compare) and any(
                getattr(n, "id", None) == "EPS_MERIDIAN" for n in [node.left, *node.comparators]
            ):
                found["meridian test"].add(stmt.lineno)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                if any(_is_sin3(n) for n in ast.walk(node.right)):
                    found["quotient by sin 3 theta"].add(stmt.lineno)
            elif called == "sqrt":
                if [getattr(a, "value", None) for a in node.args] == [1.5]:
                    found["sqrt(1.5)"].add(stmt.lineno)
            elif called in ("atan2", "arctan2") or (isinstance(node, ast.Name) and node.id.lower() == "j3"):
                found["Lode angle"].add(stmt.lineno)
    return {rule: sorted(lines) for rule, lines in found.items()}


def test_the_deviatoric_frame_has_one_home():
    # one meridian test, one sqrt(1.5) and one Lode angle, all in invariants.py,
    # and no quotient by sin 3 theta anywhere: s_tilde_perp is a difference of
    # s_tilde's components and theta an atan2 of differences of principals
    sites = {rule: [] for rule in _frame_sites("")}
    for path in MODULES:
        for rule, lines in _frame_sites(path.read_text(encoding="utf-8")).items():
            sites[rule] += [f"{path.name}:{line}" for line in lines]
    want = {"meridian test": 1, "quotient by sin 3 theta": 0, "sqrt(1.5)": 1, "Lode angle": 1}
    assert {rule: len(where) for rule, where in sites.items()} == want, sites
    assert {where.split(":")[0] for lines in sites.values() for where in lines} == {"invariants.py"}, sites


def test_a_second_deviatoric_frame_is_found():
    text = (
        "import math\n"
        "_SQRT15 = math.sqrt(1.5)\n"
        "def frame(u, theta):\n"
        "    sin3t = math.sin(3.0 * theta)\n"
        "    if abs(sin3t) <= EPS_MERIDIAN:\n"
        "        return None\n"
        "    return (_SQRT6 * (u * u - 1.0 / 3.0) - math.cos(3.0 * theta) * u) / sin3t\n"
        "def dtheta(q, theta, dj3, s):\n"
        "    on = EPS_MERIDIAN >= abs(math.sin(3.0 * theta))\n"
        "    return -9.0 / (2.0 * q**3 * math.sin(3.0 * theta)) * (dj3 - q / 3.0 * s) * sqrt(1.5)\n"
        "x = math.sin(theta) / math.sin(2.0 * theta)\n"
        "def lode(a, b, c, j2, J3, xp):\n"
        "    t = xp.arctan2(_SQRT3 * (b - c), (a - b) + (a - c))\n"
        "    return math.acos(_LODE * J3 / j2**1.5) / 3.0 + math.atan2(b, a) + math.acos(b)\n"
        "theta = _lode_angle(j2, j3, FLOAT)\n"
    )
    assert _frame_sites(text) == {
        "meridian test": [5, 9],
        "quotient by sin 3 theta": [7, 10],
        "sqrt(1.5)": [2, 10],
        "Lode angle": [13, 14, 15],
    }


def _scalar_body_calls(text) -> list:
    """``function:line`` of each call of ``_invariant_body`` with any namespace
    but numpy (``np``), as its last argument or as ``xp``; ``<module>`` for a
    call outside any function."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and (
                getattr(child.func, "id", None) or getattr(child.func, "attr", None)
            ) == "_invariant_body":
                xp = [k.value for k in child.keywords if k.arg == "xp"] or child.args[-1:]
                if not (xp and getattr(xp[0], "id", None) == "np"):
                    found.append(f"{where}:{child.lineno}")
            visit(child, where)

    visit(ast.parse(text), "<module>")
    return found


def test_the_scalar_invariants_have_one_home():
    sites = [
        f"{path.name}:{site.split(':')[0]}"
        for path in MODULES
        for site in _scalar_body_calls(path.read_text(encoding="utf-8"))
    ]
    assert sites == ["invariants.py:_state"], sites


def test_a_second_scalar_invariant_call_is_found():
    text = (
        "def _state(stress):\n"
        "    sig = _principal(stress)\n"
        "    return sig, _invariant_body(*sig, FLOAT)\n"
        "def yield_value(stress, crit):\n"
        "    p, q, theta, h = _invariant_body(*_principal(stress), FLOAT)\n"
        "def batch(sig):\n"
        "    return _invariant_body(sig[:, 0], sig[:, 1], sig[:, 2], np)\n"
        "def frame(s1, s2, s3):\n"
        "    def inner():\n"
        "        return invariants._invariant_body(s1, s2, s3, xp=FLOAT)\n"
        "    return inner(), _invariant_body(s1, s2, 0.0, np)\n"
        "x = _invariant_body(1.0, 2.0, 3.0, FLOAT)\n"
    )
    assert _scalar_body_calls(text) == ["_state:3", "yield_value:5", "inner:10", "<module>:12"]


# the wording of a limit surrogate
SURROGATE_WORDS = ("1-1e-9", "(piecewise-linear limit)", "(corner limit)")


def _limit_rule_sites(text) -> list:
    """``function:line`` of each string (not a docstring) that holds a piece of the
    surrogate wording, and of each comparison against ``GAMMA_LIMIT``; ``<module>``
    outside any function."""
    found, tree = [], ast.parse(text)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(getattr(node, "body", None), list) and node.body and isinstance(node.body[0], ast.Expr)
    }

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            worded = (
                isinstance(child, ast.Constant)
                and id(child) not in docstrings
                and isinstance(child.value, str)
                and any(w in child.value for w in SURROGATE_WORDS)
            )
            compared = isinstance(child, ast.Compare) and any(
                (getattr(n, "id", None) or getattr(n, "attr", None)) == "GAMMA_LIMIT"
                for n in [child.left, *child.comparators]
            )
            if worded or compared:
                found.append(f"{where}:{child.lineno}")
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_the_excluded_limits_have_one_rule():
    sites = {
        f"{path.name}:{site.split(':')[0]}"
        for path in MODULES
        for site in _limit_rule_sites(path.read_text(encoding="utf-8"))
    }
    assert sites == {"criterion.py:_excluded_limits"}, sites


def test_a_second_limit_rule_is_found():
    text = (
        'def _excluded_limits(gamma, alpha, corner):\n'
        '    """gamma -> 1 realized as 1-1e-9 (piecewise-linear limit)"""\n'
        '    return "gamma -> 1 realized as 1-1e-9 (piecewise-linear limit)"\n'
        "def _realization(shape, alpha, warn):\n"
        "    if shape.gamma == GAMMA_LIMIT:\n"
        '        warn.append("gamma -> 1 realized as 1-1e-9")\n'
        "    if alpha < 1.0:\n"
        '        warn.append(f"alpha = 0 realized as {alpha:g} (corner limit)")\n'
        "    return criterion.GAMMA_LIMIT > shape.gamma\n"
        'NOTE = "(piecewise-linear limit)"\n'
    )
    assert _limit_rule_sites(text) == [
        "_excluded_limits:3", "_realization:5", "_realization:6", "_realization:8", "_realization:9", "<module>:10"
    ]


def _theta_rule_faults(text) -> list:
    """What ``_check_theta`` in ``text`` does besides ``namespace`` plus a range check:
    no call of ``namespace``, a branch on ``str`` or ``bytes``, or a call of ``_float_array``."""
    (func,) = [n for n in ast.walk(ast.parse(text)) if isinstance(n, ast.FunctionDef) and n.name == "_check_theta"]
    called = {getattr(n.func, "id", None) or getattr(n.func, "attr", None) for n in ast.walk(func) if isinstance(n, ast.Call)}
    names = {n.id for n in ast.walk(func) if isinstance(n, ast.Name)}
    faults = [] if "namespace" in called else ["no namespace call"]
    faults += ["str/bytes branch"] if names & {"str", "bytes"} else []
    return faults + (["_float_array call"] if "_float_array" in called else [])


def test_theta_has_one_input_rule():
    assert _theta_rule_faults((SRC / "invariants.py").read_text(encoding="utf-8")) == []


def test_a_second_theta_rule_is_found():
    text = (
        "def _check_theta(theta):\n"
        "    if isinstance(theta, (float, int)):\n"
        "        xp, th, ok = FLOAT, theta, _THETA_LO <= theta <= _THETA_HI\n"
        "    elif isinstance(theta, (str, bytes)):\n"
        "        raise DomainError(f'theta must be a number, got {theta!r}')\n"
        "    else:\n"
        "        th = invariants._float_array(theta)\n"
        "    return xp, th\n"
    )
    assert _theta_rule_faults(text) == ["no namespace call", "str/bytes branch", "_float_array call"]


def _name_sites(text, names=("_THETA_LO", "_THETA_HI")) -> list:
    """Line numbers where ``text`` names any of ``names``: a name, an attribute or an import."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.alias):
            hit = node.name in names or node.asname in names
        else:
            hit = getattr(node, "id", None) in names or getattr(node, "attr", None) in names
        if hit:
            found.add(node.lineno)
    return sorted(found)


def test_only_invariants_names_the_theta_range_ends():
    sites = [path.name for path in MODULES if _name_sites(path.read_text(encoding="utf-8"))]
    assert sites == ["invariants.py"]


def test_a_second_theta_range_is_found():
    text = (
        "from .invariants import _THETA_HI, _THETA_LO\n"
        "from . import invariants\n"
        "def rows(th):\n"
        "    if not _THETA_LO <= th <= invariants._THETA_HI:\n"
        "        raise ValueError(th)\n"
    )
    assert _name_sites(text) == [1, 4]


def _interval_wording_sites(text, wording="outside the convex interval for gamma") -> list:
    """The functions (or ``<module>``) of ``text`` holding a string with ``wording``."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and wording in node.value:
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(text), "<module>")
    return list(dict.fromkeys(found))


def test_the_native_shape_has_one_convexity_gate():
    sites = [
        f"{path.name}:{site}"
        for path in MODULES
        for site in _interval_wording_sites(path.read_text(encoding="utf-8"))
    ]
    assert sites == ["criterion.py:_check_native_shape"]


def test_a_second_convexity_gate_is_found():
    text = (
        "def _check_native_shape(shape, hint=''):\n"
        "    raise ValidationError(f'beta={shape.beta} outside the convex interval for gamma={shape.gamma}{hint}')\n"
        "class YieldParams:\n"
        "    def __post_init__(self):\n"
        "        if not beta_in_convex_interval(self.beta, self.gamma)[0]:\n"
        "            raise ValidationError(f'beta={self.beta} outside the convex interval for gamma={self.gamma}')\n"
        "        _check_native_shape(self.shape())\n"
    )
    assert _interval_wording_sites(text) == ["_check_native_shape", "__post_init__"]


# a record-type refusal: "<what> must be a Criterion, got" or "<call> needs a FitDataset, got"
_TYPE_REFUSAL = re.compile(r"\b(?:must be|needs) an? [A-Z]\w*(?: and an? [A-Z]\w*)*, got")


def _type_refusal_lines(text) -> list:
    """Line numbers of ``text`` that word a refusal of a record of the wrong type."""
    return [i for i, line in enumerate(text.splitlines(), start=1) if _TYPE_REFUSAL.search(line)]


def test_record_type_refusals_are_worded_only_in_errors():
    sites = {path.name for path in MODULES if _type_refusal_lines(path.read_text(encoding="utf-8"))}
    assert sites <= {"errors.py"}


def test_a_second_record_type_refusal_is_found():
    text = (
        "if not isinstance(self.template, Criterion):\n"
        "    raise ValidationError(f'template must be a Criterion, got {type(self.template).__name__}')\n"
        "_typed('fit', (problem, FitProblem))\n"
        "raise ValidationError('fit needs a FitProblem and a FitDataset, got str')\n"
        "raise ValidationError(f'parameter JSON must be an object, got {type(d).__name__}')\n"
    )
    assert _type_refusal_lines(text) == [2, 4]
