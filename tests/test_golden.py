"""The per-state kernel against its golden record, ``tests/golden/kernel.json``.

``invariants``, ``yield_value``, ``surface_q`` and ``gradient`` must give
every recorded number to within 1e-12 relative to the state's scale (1 for
angles and the dimensionless gradient terms), and every recorded
DegenerateState message exactly.  The tolerance, not bit equality, is the
contract, so that no result depends on one build of numpy or libm; the
test prints how many numbers came out bit-identical.
"""

from __future__ import annotations

import json
import math
import pathlib

import numpy as np
import pytest

import yieldcrit as yc
from yieldcrit.criterion import SHAPE_KINDS

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "kernel.json"
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]
REL = 1e-12


def _compare(got, want, scale: float, where: str, tally: list) -> None:
    """Assert ``got`` equals ``want`` to REL * scale; count bit-identical numbers."""
    if isinstance(want, str):  # a non-finite number, by name
        assert repr(got) == want, where
        tally.append(True)
    elif want is None or isinstance(want, bool):
        assert got == want and type(got) is type(want), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, scale, f"{where}[{k}]", tally)
    else:
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert abs(got - want) <= REL * max(abs(want), scale), f"{where}: {got!r} != {want!r}"
        tally.append(got == want and math.copysign(1.0, got) == math.copysign(1.0, want))


def _check_case(case: dict, tally: list) -> None:
    crit = yc.criterion_from_dict(case["criterion"])
    stress = case["stress"]
    where = f"{case['category']} state {stress} of {case['criterion']}"
    inv = yc.invariants(stress)
    size = abs(inv.p) + inv.q + crit.meridian.scale
    _compare([inv.p, inv.q], case["invariants"][:2], size, f"{where}: p, q", tally)
    _compare(inv.theta, case["invariants"][2], 1.0, f"{where}: theta", tally)
    _compare(inv.hydrostatic, case["invariants"][3], 1.0, f"{where}: hydrostatic", tally)
    _compare(yc.yield_value(stress, crit), case["yield_value"], size, f"{where}: F", tally)
    _compare(yc.surface_q(inv.p, inv.theta, crit), case["surface_q"], size, f"{where}: surface_q", tally)
    want = case["gradient"]
    if "DegenerateState" in want:
        with pytest.raises(yc.DegenerateState) as info:
            yc.gradient(stress, crit)
        assert str(info.value) == want["DegenerateState"], where
        return
    dec = yc.gradient(stress, crit)
    assert isinstance(dec.tensor, np.ndarray) and isinstance(dec.unit_normal, np.ndarray)
    got = [dec.a, dec.b, dec.c, dec.tensor.tolist(), dec.unit_normal.tolist()]
    order = [want[k] for k in ("a", "b", "c", "tensor", "unit_normal")]
    _compare(got, order, 1.0, f"{where}: gradient (a, b, c, tensor, unit_normal)", tally)


def test_record_covers_the_kernel_cases():
    categories = {case["category"] for case in CASES}
    assert categories >= {
        "interior", "surface", "theta0", "theta60", "hydrostatic", "outside",
        "tension-end", "compression-end",
    }
    kinds = {case["criterion"].get("deviatoric", {"kind": "bp"})["kind"] for case in CASES}
    assert kinds == set(SHAPE_KINDS)
    assert {case["criterion"]["meridian"] for case in CASES} == {"bp", "linear"}
    assert any(case["criterion"].get("A", 0.0) > 0.0 for case in CASES)
    assert any("DegenerateState" in case["gradient"] for case in CASES)


def test_kernel_matches_golden_record(capsys):
    tally: list = []
    for case in CASES:
        _check_case(case, tally)
    with capsys.disabled():
        print(f"\ngolden kernel record: {sum(tally)} of {len(tally)} numbers bit-identical")
