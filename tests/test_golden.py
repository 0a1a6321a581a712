"""The per-state kernel, the fitter, convexity certification, the section
samplers and the command line against their golden records in
``tests/golden``.

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

Every recorded section curve (``tests/golden/sections.json``) must give
its labels exactly and every sample within 1e-12 relative to the largest
magnitude in the curve, and a refused curve its error class and message
exactly.

Every recorded command line (``tests/golden/cli.json``) must give its exit
code and its stderr exactly, and its stdout exactly but for the numbers in
it, each within 1e-12 relative to the largest number of that output.  A
usage error (exit code 1) is argparse's text, which changes between Python
versions, so of its stderr only the ``prog: error:`` prefix of the last
line is compared.
"""

from __future__ import annotations

import json
import math
import pathlib
import re

import numpy as np
import pytest

import yieldcrit as yc
from yieldcrit import cli
from yieldcrit.criterion import SHAPE_KINDS

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "kernel.json"
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]
FITS = json.loads((GOLDEN.parent / "fits.json").read_text(encoding="utf-8"))
CERTIFY = json.loads((GOLDEN.parent / "certify.json").read_text(encoding="utf-8"))["cases"]
CLI = json.loads((GOLDEN.parent / "cli.json").read_text(encoding="utf-8"))
SECTIONS = json.loads((GOLDEN.parent / "sections.json").read_text(encoding="utf-8"))
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
    # free parameters outside the meridian take the shape's partials
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


def test_section_record_covers_every_sampler_and_shape():
    cases = SECTIONS["cases"]
    assert {case["seed"] for case in cases} == {1, 2, 3, 4, 5}
    kinds = {case["criterion"].get("deviatoric", {"kind": "bp"})["kind"] for case in cases}
    assert kinds == set(SHAPE_KINDS)
    assert any(case["criterion"]["A"] > 0.0 for case in cases)
    names = {"meridian", "deviatoric", "deviatoric normalize", "biaxial", "biaxial normalize"}
    assert all(set(case["curves"]) == names for case in cases)


def _curve(sample, *args, **kwargs):
    """(curve, None) or (None, the refusal as the record writes it)."""
    try:
        return sample(*args, **kwargs), None
    except yc.YieldCritError as exc:
        return None, {"error": type(exc).__name__, "message": str(exc)}


def test_sections_match_golden_record(capsys):
    n = SECTIONS["n"]
    tally: list = []
    for case in SECTIONS["cases"]:
        crit = yc.criterion_from_dict(case["criterion"])
        theta, at_p = case["theta"], case["at_p"]
        calls = {
            "meridian": (yc.sample_meridian, (crit, theta, n), {}),
            "deviatoric": (yc.sample_deviatoric, (crit, at_p, n), {}),
            "deviatoric normalize": (yc.sample_deviatoric, (crit, at_p, n), {"normalize": True}),
            "biaxial": (yc.sample_biaxial, (crit, n), {}),
            "biaxial normalize": (yc.sample_biaxial, (crit, n), {"normalize": True}),
        }
        for name, (sample, args, kwargs) in calls.items():
            where = f"seed {case['seed']} criterion {case['index']}: {name}"
            want = case["curves"][name]
            got, refusal = _curve(sample, *args, **kwargs)
            if "error" in want:
                assert refusal == want, where
                continue
            assert refusal is None, f"{where}: {refusal}"
            assert (got.xlabel, got.ylabel) == (want["xlabel"], want["ylabel"]), where
            numbers = [v for row in want["samples"] for v in row if not isinstance(v, str)]
            scale = max(map(abs, numbers), default=0.0)
            _compare(got.samples.tolist(), want["samples"], scale, where, tally)
    with capsys.disabled():
        print(f"\ngolden section record: {sum(tally)} of {len(tally)} numbers bit-identical")


def test_cli_record_covers_every_command():
    argvs = [case["argv"] for case in CLI["cases"]]

    def second(command):
        return {argv[1] for argv in argvs if len(argv) > 1 and argv[0] == command}

    assert {argv[0] for argv in argvs if argv} >= {
        "eval", "section", "check-convexity", "fit", "compare", "realize",
    }
    assert second("realize") >= set(cli._CLASSICAL)
    assert second("section") >= {"meridian", "deviatoric", "biaxial"}
    assert second("compare") == {"gurson", "newman"}
    assert {case["exit"] for case in CLI["cases"]} == {0, 1, 2, 3}
    for command in ("eval", "check-convexity"):
        files = {argv[2] for argv in argvs if argv[:2] == [command, "--params"]}
        assert {f"{m}-{kind}.json" for m in ("cap", "linear") for kind in SHAPE_KINDS} <= files


# a number in CLI output: JSON, CSV, SVG or a message
_NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _same_output(got: str, want: str, where: str) -> bool:
    """Assert ``got`` is ``want`` but for numbers within REL of the largest
    number in ``want``; True when it is byte-identical."""
    if got == want:
        return True
    g, w = _NUMBER.split(got), _NUMBER.split(want)
    assert len(g) == len(w) and g[::2] == w[::2], f"{where}: {got!r} != {want!r}"
    numbers = [float(v) for v in w[1::2]]
    scale = max(map(abs, numbers), default=0.0)
    for a, b in zip(g[1::2], numbers):
        assert abs(float(a) - b) <= REL * max(abs(b), scale), f"{where}: {a} != {b!r}"
    return False


def test_cli_matches_golden_record(tmp_path, monkeypatch, capsys):
    for name, text in CLI["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    for name, text in CLI["bytes_files"].items():
        (tmp_path / name).write_bytes(bytes.fromhex(text))
    monkeypatch.chdir(tmp_path)
    identical = 0
    for case in CLI["cases"]:
        code = cli.main(case["argv"])
        out, err = capsys.readouterr()
        where = case["label"]
        assert code == case["exit"], f"{where}: exit {code}, {err!r}"
        if code == 1:
            prefix = case["stderr"].splitlines()[-1].split(" error: ")[0] + " error: "
            assert err.splitlines()[-1].startswith(prefix), f"{where}: {err!r}"
        else:
            assert err == case["stderr"], where
        identical += _same_output(out, case["stdout"], where)
    with capsys.disabled():
        print(f"\ngolden CLI record: {identical} of {len(CLI['cases'])} outputs byte-identical")
