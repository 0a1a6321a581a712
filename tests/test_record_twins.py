"""A record class binds calls and becomes a dataclass through its twin, in any order.

Each record class makes, on first use, a plain dataclass with its fields:
its twin.  A call that does not bind raises the twin's TypeError, and the
first read of the class's dataclass attributes or signature copies them
from the twin.  Neither converts any other class, so the order of first
uses must not matter: a fresh interpreter that reads every class first and
one that makes a call that does not bind first, in the opposite class
order (a base before its subclass in one, after it in the other), must
report the same fields, ``__match_args__``, signature and errors, and each
error must be the one a frozen dataclass with the same fields raises.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import yieldcrit
from yieldcrit import CapMeridian, CosineLode, Criterion, WillamWarnke

SCRIPT = """
import dataclasses, inspect, json, sys

import yieldcrit.calibration, yieldcrit.limits, yieldcrit.sections
from yieldcrit.invariants import Record

mode, first = sys.argv[1], sys.argv[2].split(",")
found, todo = {}, [Record]
while todo:
    for sub in todo.pop().__subclasses__():
        todo.append(sub)
        if sub.__module__.startswith("yieldcrit."):
            found[sub.__qualname__] = sub
names = first + sorted(set(found) - set(first))
if mode == "bind":
    names.reverse()


def converted(cls):
    return type(cls.__dict__["__dataclass_fields__"]).__name__ != "_OnFirstRead"


def raised(call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except TypeError as exc:
        return str(exc)
    return None


def bad_calls(cls):
    n = len(cls._field_names)
    return [((), {}), ((), {"extra": 1.0}), ((1.0,) * (n + 1), {}), ((1.0,), {cls._field_names[0]: 1.0})]


report = {}
for name in names:
    cls = found[name]
    seen = {"converted_before": converted(cls)}
    if mode == "bind":
        seen["errors"] = [raised(cls, *args, **kwargs) for args, kwargs in bad_calls(cls)]
        seen["converted_by_binding"] = converted(cls)
    fields = dataclasses.fields(cls)
    oracle = dataclasses.make_dataclass(
        cls.__qualname__,
        [(f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, f.default) for f in fields],
        frozen=True,
    )
    if mode == "read":
        seen["errors"] = [raised(cls, *args, **kwargs) for args, kwargs in bad_calls(cls)]
    seen["oracle_errors"] = [raised(oracle, *args, **kwargs) for args, kwargs in bad_calls(cls)]
    seen["fields"] = [
        [f.name, f.type, "MISSING" if f.default is dataclasses.MISSING else repr(f.default),
         f.init, f.repr, f.hash, f.compare, f.kw_only]
        for f in fields
    ]
    seen["match_args"] = list(cls.__match_args__)
    seen["signature"] = str(inspect.signature(cls))
    seen["params"] = repr(cls.__dataclass_params__)
    seen["is_dataclass"] = dataclasses.is_dataclass(cls)
    report[name] = seen
print(json.dumps(report))
"""


def _report(mode: str, first: list) -> dict:
    """What SCRIPT prints, run in a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(yieldcrit.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode, ",".join(first)], env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_binding_first_and_reading_first_agree_with_a_frozen_dataclass():
    pair = ["_StrengthRatio", "DruckerPrager"]
    read = _report("read", pair)  # the base read first, then its subclass
    bound = _report("bind", pair)  # every class binds first, the subclass before its base
    assert list(read)[:2] == pair and list(bound)[-2:] == pair[::-1]
    assert set(read) == set(bound) and len(read) > 20
    for name, seen in bound.items():
        assert not seen.pop("converted_before") and not seen.pop("converted_by_binding"), name
        assert not read[name].pop("converted_before"), name
        assert seen == read[name], name
        assert seen["errors"] == seen["oracle_errors"], name
        assert all(error and error.startswith(f"{name}.__init__() ") for error in seen["errors"]), name
        assert seen["is_dataclass"] and seen["match_args"] == [f[0] for f in seen["fields"]], name


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (CosineLode, {"beta": 1.0, "zeta": 0.0}),
        (WillamWarnke, {"eccentricity": 0.8}),
        (CapMeridian, {"M": 1.0, "pc": 1.0, "c": 0.0, "m": 2.0, "Alpha": 1.0}),
        (Criterion, {"meridian": None, "shape": None, "A": 0.0, "b": 1.0}),
    ],
)
def test_every_keyword_with_one_wrong_name_raises_the_dataclass_error(cls, kwargs):
    # as many keywords as fields take the keyword path, which hands a wrong name to the twin
    assert len(kwargs) == len(cls._field_names)
    fields = dataclasses.fields(cls)
    oracle = dataclasses.make_dataclass(
        cls.__qualname__,
        [(f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, f.default) for f in fields],
        frozen=True,
    )
    errors = []
    for call in (cls, oracle):
        try:
            call(**kwargs)
        except TypeError as exc:
            errors.append(str(exc))
    assert len(errors) == 2 and errors[0] == errors[1]
    assert errors[0].startswith(f"{cls.__qualname__}.__init__() got an unexpected keyword argument")
