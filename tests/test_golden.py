"""The per-state kernel, the fitter and convexity certification against
their golden records, ``tests/golden/kernel.json``, ``tests/golden/fits.json``
and ``tests/golden/certify.json``.

``invariants``, ``yield_value``, ``surface_q`` and ``gradient`` must give
every recorded number to within 1e-12 relative to the state's scale (1 for
angles and the dimensionless gradient terms), and every recorded
DegenerateState message exactly.  The tolerance, not bit equality, is the
contract, so that no result depends on one build of numpy or libm; the
test prints how many numbers came out bit-identical.

Every recorded fit must give its winning values, rms and every start's
start point, end point and rms to within 1e-12 relative (1 for an rms,
which is dimensionless), and its ``n_agree``, ``iterations`` and every
start's ``evaluations`` and ``stop`` exactly.

Every recorded ``certify`` report must give its verdicts, interval and
witnesses to within 1e-12 relative (1 for these dimensionless numbers), and
its notes exactly.
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
FITS = json.loads((GOLDEN.parent / "fits.json").read_text(encoding="utf-8"))
CERTIFY = json.loads((GOLDEN.parent / "certify.json").read_text(encoding="utf-8"))["cases"]
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


def test_fit_record_covers_both_jacobians_and_modes():
    cases = FITS["cases"]
    assert len({case["dataset"] for case in cases}) == 14
    assert {case["mode"] for case in cases} == {"meridian_distance", "function_value"}
    assert {case["seed"] for case in cases} >= {0, 1}
    # free parameters outside the meridian take the difference Jacobian
    assert any("beta" in case["free"] for case in cases)


def _check_fit(case: dict, tally: list) -> None:
    problem = yc.FitProblem(
        template=yc.criterion_from_dict(case["template"]),
        free=tuple(case["free"]),
        residual_mode=case["mode"],
    )
    points = np.array(FITS["datasets"][case["dataset"]])
    dataset = yc.FitDataset(points=points, weights=np.ones(len(points)))
    result = yc.fit(problem, dataset, seed=case["seed"], n_starts=case["n_starts"])
    where = f"{case['dataset']} / {case['mode']} seed {case['seed']}"
    assert [n for n, _ in result.values] == case["free"], where
    _compare([v for _, v in result.values], case["values"], 0.0, f"{where}: values", tally)
    _compare(result.rms, case["rms"], 1.0, f"{where}: rms", tally)
    got = (result.n_agree, result.iterations, len(result.starts))
    assert got == (case["n_agree"], case["iterations"], len(case["starts"])), where
    for j, (start, want) in enumerate(zip(result.starts, case["starts"])):
        at = f"{where} start {j}"
        assert (start.evaluations, start.stop) == (want["evaluations"], want["stop"]), at
        _compare([v for _, v in start.start], want["start"], 0.0, f"{at}: start", tally)
        _compare([v for _, v in start.values], want["values"], 0.0, f"{at}: values", tally)
        _compare(start.rms, want["rms"], 1.0, f"{at}: rms", tally)


def test_fits_match_golden_record(capsys):
    tally: list = []
    for case in FITS["cases"]:
        _check_fit(case, tally)
    with capsys.disabled():
        print(f"\ngolden fit record: {sum(tally)} of {len(tally)} numbers bit-identical")


def test_certify_record_covers_every_shape_on_both_meridians():
    crits = [case["criterion"] for case in CERTIFY]
    pairs = {(c["meridian"], c.get("deviatoric", {"kind": "bp"})["kind"]) for c in crits}
    assert pairs == {(m, kind) for m in ("bp", "linear") for kind in SHAPE_KINDS}
    assert any(c["A"] > 0.0 for c in crits)
    assert {case["report"]["admissible"] for case in CERTIFY} == {True, False}


def _report_numbers(d: dict) -> list:
    return [
        d["beta_interval"],
        [d["meridian_worst"]["phi"], d["meridian_worst"]["margin"]],
        [d["deviatoric_worst"]["theta"], d["deviatoric_worst"]["margin"]],
    ]


def test_certify_matches_golden_record(capsys):
    tally: list = []
    for case in CERTIFY:
        got = yc.certify(yc.criterion_from_dict(case["criterion"], unchecked=True)).to_dict()
        want = case["report"]
        where = case["label"]
        for key in ("admissible", "meridian_ok", "deviatoric_ok", "notes"):
            assert got[key] == want[key], f"{where}: {key} {got[key]!r} != {want[key]!r}"
        _compare(_report_numbers(got), _report_numbers(want), 1.0, f"{where}: numbers", tally)
    with capsys.disabled():
        print(f"\ngolden certify record: {sum(tally)} of {len(tally)} numbers bit-identical")
