"""Write the golden record of the command line: ``cli.json``.

It records the exit code, stdout and stderr of ``yieldcrit.cli.main`` for

  * ``eval`` and ``check-convexity`` on all four deviatoric shapes on both
    meridians, with A = 0 and, for two shapes, A > 0; ``eval`` at an
    interior state, on the theta = 0 and theta = pi/3 meridians, on the
    hydrostatic axis, at a cap end, outside the cap or beyond a linear
    meridian's apex, with ``--degrees`` and with inline parameter flags,
    and where g(theta) underflows to 0;
  * ``section`` (all three kinds, ``--normalize``, ``--p-range``, SVG),
    ``fit`` (both residual modes, bounds, init, a fit that does not
    converge), ``compare`` (both kinds) and every ``realize`` kind;
  * the error paths: usage errors, missing and broken files, non-finite,
    non-numeric and uncertified parameters, malformed flag values, and the
    refused inputs of each command.

Every command runs in one directory that holds the input files below, and
names them by relative path, so no record holds a path of the machine that
wrote it.  The record keeps the files, so the test rebuilds the directory.

Run by hand, from the repository root, against the tree whose output is to
be recorded:

    PYTHONPATH=src python tests/golden/make_cli_golden.py

``tests/test_golden.py`` compares the command line with the file.  A change
that alters an output on purpose regenerates the file and names each
changed entry in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import tempfile

from yieldcrit.cli import main as cli_main

OUT = pathlib.Path(__file__).resolve().parent / "cli.json"

CAP = {"meridian": "bp", "M": 0.75, "pc": 1.0, "c": 0.1, "m": 2.0, "alpha": 1.0}
LINEAR = {"meridian": "linear", "Gamma": 0.8, "c": 0.2}
SHAPES = {
    "bp": {"beta": 0.6, "gamma": 0.8},
    "power-law": {"deviatoric": {"kind": "power-law", "beta": 0.8, "n": 3.0}},
    "willam-warnke": {"deviatoric": {"kind": "willam-warnke", "e": 0.7}},
    "gudehus-argyris": {"deviatoric": {"kind": "gudehus-argyris", "k": 0.9}},
}

# (label, principal stresses) on the cap meridian above: p = 1/3 inside,
# theta = 0 and pi/3, the hydrostatic axis, Phi = 3e-14 at the tension end,
# Phi = 1 at the compression end and Phi < 0 outside the cap
CAP_STATES = [
    ("interior", "-0.6,-0.3,-0.1"),
    ("theta0", "-0.2,-0.5,-0.5"),
    ("theta60", "-0.2,-0.2,-0.6"),
    ("hydrostatic", "-0.4,-0.4,-0.4"),
    ("tension-end", "0.2,0.05,0.0499999999999"),
    ("compression-end", "-0.9,-0.9,-1.2"),
    ("outside", "0.5,0.5,0.2"),
]
# and on the linear meridian, whose apex is at p = -c = -0.2
LINEAR_STATES = [
    ("interior", "-0.6,-0.3,-0.1"),
    ("theta0", "-0.2,-0.5,-0.5"),
    ("theta60", "-0.2,-0.2,-0.6"),
    ("hydrostatic", "-0.4,-0.4,-0.4"),
    ("beyond-apex", "1.0,1.0,0.5"),
]

DATA = (
    "p,q,theta\n0.2,0.3,1.0471975511965976\n0.5,0.375,1.0471975511965976\n"
    "0.8,0.3,1.0471975511965976\n"
)
CAM_CLAY = {"M": 0.75, "pc": 1.0, "c": 0.0, "m": 2.0, "alpha": 1.0, "beta": 1.0, "gamma": 0.0}


def _json(d: dict) -> str:
    return json.dumps(d) + "\n"


def files() -> dict[str, str]:
    """The text input files, by name."""
    out = {}
    for shape, fields in SHAPES.items():
        out[f"cap-{shape}.json"] = _json({**CAP, **fields})
        out[f"linear-{shape}.json"] = _json({**LINEAR, **fields})
    out["cap-bp-A.json"] = _json({**CAP, **SHAPES["bp"], "A": 0.3})
    out["cap-power-law-A.json"] = _json({**CAP, **SHAPES["power-law"], "A": 0.3, "B": 1.5})
    out["cam-clay.json"] = _json(CAM_CLAY)
    out["concrete.json"] = _json({"M": 0.82, "pc": 100.0, "c": 0.1, "m": 2.0, "alpha": 0.05,
                                  "beta": 1.0, "gamma": 0.0})
    # inadmissible, for check-convexity and for the --unchecked bypass
    out["native-above.json"] = _json({**CAP, "beta": 4.5, "gamma": 0.5})
    out["power-law-above.json"] = _json(
        {**CAP, "deviatoric": {"kind": "power-law", "beta": 1.05, "n": 3.0}}
    )
    out["gudehus-argyris-low.json"] = _json(
        {**CAP, "deviatoric": {"kind": "gudehus-argyris", "k": 0.7775}}
    )
    # g(theta) = (1 + 1000 (1 + cos 3 theta))^-1000 underflows to 0: F is +inf
    out["power-law-underflow.json"] = _json(
        {**LINEAR, "c": 0.5, "Gamma": 1.0, "deviatoric": {"kind": "power-law", "beta": 1000.0, "n": 0.001}}
    )
    # a certified cone whose sigma3 = 0 slice is unbounded along equibiaxial compression
    out["linear-unbounded.json"] = _json(
        {"meridian": "linear", "Gamma": 1, "c": 0, "deviatoric": {"kind": "bp", "beta": 0, "gamma": 0},
         "A": 0, "B": 0.5}
    )
    # refused parameter files
    out["empty.json"] = ""
    out["not-json.json"] = '{"M": 1.0,\n "pc": \n'
    out["nan.json"] = _json(CAM_CLAY).replace('"M": 0.75', '"M": NaN')
    out["string-param.json"] = _json({**CAM_CLAY, "m": "2"})
    out["bool-param.json"] = _json({**CAM_CLAY, "alpha": True})
    out["huge-int.json"] = _json(CAM_CLAY).replace('"M": 0.75', '"M": 1' + "0" * 400)
    out["missing-param.json"] = _json({k: v for k, v in CAM_CLAY.items() if k != "pc"})
    out["bad-range.json"] = _json({**CAM_CLAY, "alpha": 2.5})
    out["bad-kind.json"] = _json({**CAM_CLAY, "meridian": "parabolic"})
    out["bad-shape.json"] = _json({**CAP, "deviatoric": {"kind": "hexagon"}})
    out["list.json"] = "[1, 2, 3]\n"
    # fit inputs
    out["points.csv"] = DATA
    out["principal.csv"] = (
        "# principal stresses, weighted\ns1,s2,s3,w\n-0.2,-0.2,-0.6,1\n-0.3,-0.3,-1.0,2\n-0.1,-0.1,-0.4,1\n"
    )
    out["nan-row.csv"] = "p,q,theta\n0.5,0.3,0\nnan,0.3,0.1\n"
    out["bad-header.csv"] = "x,y,z\n1,2,3\n"
    out["short-row.csv"] = "p,q,theta\n0.5,0.3\n"
    out["one-point.csv"] = "p,q,theta\n0.5,0.375,1.0471975511965976\n"
    # a q so small that the residuals' squares overflow at every start
    out["tiny-q.csv"] = "p,q,theta\n0.5,1.3778482211687383e-192,0.0\n"
    # scattered points that only one of the 16 starts of a five-parameter fit reaches
    out["scatter.csv"] = ("p,q,theta\n0.283,0.209,0.302\n0.268,0.372,0.432\n0.849,0.355,0.857\n"
                          "0.253,0.495,0.656\n0.162,0.358,1.004\n")
    problem = {"criterion": dict(CAM_CLAY, M=0.5), "free": ["M"], "residual_mode": "meridian_distance"}
    out["problem.json"] = _json(problem)
    out["problem-fv.json"] = _json({**problem, "free": ["M", "m"], "residual_mode": "function_value",
                                    "seed": 3})
    out["problem-bounds.json"] = _json({**problem, "free": ["M", "alpha"],
                                        "bounds": {"M": [0.2, 2.0], "alpha": [0.5, 1.5]},
                                        "init": {"M": 0.6, "alpha": 1.2}})
    out["problem-five.json"] = _json({**problem, "free": ["M", "m", "alpha", "beta", "gamma"],
                                      "residual_mode": "function_value", "seed": 0})
    out["problem-two.json"] = _json({**problem, "free": ["M", "alpha"]})
    out["problem-no-free.json"] = _json({**problem, "free": []})
    out["problem-no-free-key.json"] = _json({"criterion": CAM_CLAY})
    out["problem-unknown-free.json"] = _json({**problem, "free": ["Q"]})
    out["problem-bad-bound.json"] = _json({**problem, "bounds": {"M": [-1.0, 2.0]}})
    out["problem-bad-mode.json"] = _json({**problem, "residual_mode": "nearest"})
    out["problem-list.json"] = _json([problem])
    out["problem-free-number.json"] = _json({**problem, "free": 3})
    out["problem-free-string.json"] = _json({**problem, "free": "M"})
    out["problem-seed-string.json"] = _json({**problem, "seed": "x"})
    out["problem-seed-negative.json"] = _json({**problem, "seed": -1})
    out["problem-seed-fraction.json"] = _json({**problem, "seed": 1.5})
    out["problem-bounds-list.json"] = _json({**problem, "bounds": [1, 2]})
    out["problem-bound-short.json"] = _json({**problem, "bounds": {"M": [1]}})
    out["problem-bound-string.json"] = _json({**problem, "bounds": {"M": [0.1, "x"]}})
    out["problem-init-string.json"] = _json({**problem, "init": {"M": "x"}})
    out["problem-init-bool.json"] = _json({**problem, "init": {"M": True}})
    out["problem-bound-unknown.json"] = _json({**problem, "bounds": {"Q": [1, 2]}})
    out["problem-init-not-free.json"] = _json({**problem, "init": {"M": 0.6, "Q": 3}})
    return out


def bytes_files() -> dict[str, bytes]:
    """The input files that are not UTF-8 text, by name."""
    return {
        "not-utf8.json": b'{"M": 1.0,\n "pc": "\xff"}\n',
        "not-utf8.csv": b"p,q,theta\n0.5,0.3,0\n0.2,0.4,\xff\n",
    }


def _eval(params: str, stress: str, *flags: str) -> list[str]:
    return ["eval", "--params", params, f"--stress={stress}", *flags]


def _section(kind: str, params: str, *flags: str) -> list[str]:
    return ["section", kind, "--params", params, *flags]


def _fit(data: str, problem: str) -> list[str]:
    return ["fit", "--data", data, "--problem", problem]


INTERIOR = "-0.6,-0.3,-0.1"


def _eval_cases():
    for shape in SHAPES:
        for label, stress in CAP_STATES:
            yield f"eval {label} on cap {shape}", _eval(f"cap-{shape}.json", stress)
        for label, stress in LINEAR_STATES:
            yield f"eval {label} on linear {shape}", _eval(f"linear-{shape}.json", stress)
    for name in ("cap-bp-A", "cap-power-law-A"):
        for label, stress in CAP_STATES[:3]:
            yield f"eval {label} on {name}", _eval(f"{name}.json", stress)
    yield "eval --degrees", _eval("cap-bp.json", INTERIOR, "--degrees")
    yield "eval spaced stress", ["eval", "--params", "cap-bp.json", "--stress", " -0.6, -0.3 ,-0.1"]
    inline = ["--M", "0.75", "--pc", "1", "--c", "0.1", "--m", "2", "--alpha", "1", "--beta", "0.6",
              "--gamma", "0.8"]
    yield "eval inline flags", ["eval", *inline, f"--stress={INTERIOR}"]
    yield "eval inline flags with A and B", ["eval", *inline, "--A", "0.3", "--B", "1.5", f"--stress={INTERIOR}"]
    yield "eval inline flags missing", ["eval", "--M", "0.75", "--pc", "1", f"--stress={INTERIOR}"]
    yield "eval uncertified", _eval("native-above.json", INTERIOR)
    yield "eval --unchecked", ["eval", "--params", "native-above.json", "--unchecked", f"--stress={INTERIOR}"]
    yield "eval g underflow --unchecked", ["eval", "--params", "power-law-underflow.json", "--unchecked",
                                           "--stress=-0.5,0.2,0.1"]
    for label, stress in (("words", "a,b,c"), ("two components", "1,2"), ("four components", "1,2,3,4"),
                          ("too large", "1e120,0,0"), ("nan", "nan,0,0"), ("inf", "-inf,0,0")):
        yield f"eval stress {label}", _eval("cap-bp.json", stress)


def _check_cases():
    for shape in SHAPES:
        for mer in ("cap", "linear"):
            yield f"check-convexity {mer} {shape}", ["check-convexity", "--params", f"{mer}-{shape}.json"]
    for name in ("cap-bp-A", "cap-power-law-A", "cam-clay", "native-above", "power-law-above",
                 "gudehus-argyris-low"):
        yield f"check-convexity {name}", ["check-convexity", "--params", f"{name}.json"]


def _section_cases():
    yield "section meridian", _section("meridian", "cap-bp.json", "-n", "12")
    yield "section meridian theta", _section("meridian", "cap-power-law.json", "--theta", "0.5", "-n", "9")
    yield "section meridian degrees", _section(
        "meridian", "cap-bp.json", "--theta", "60", "--degrees", "-n", "7"
    )
    yield "section meridian p-range", _section(
        "meridian", "linear-willam-warnke.json", "--p-range=-0.2,3", "-n", "8"
    )
    yield "section meridian linear without range", _section("meridian", "linear-bp.json")
    yield "section meridian bad range", _section("meridian", "cap-bp.json", "--p-range=1,x")
    yield "section meridian reversed range", _section("meridian", "cap-bp.json", "--p-range=2,1")
    yield "section meridian empty range", _section("meridian", "cap-bp.json", "--p-range=3,5")
    yield "section deviatoric", _section("deviatoric", "cap-gudehus-argyris.json", "--p", "0.4", "-n", "5")
    yield "section deviatoric normalize", _section(
        "deviatoric", "cap-bp.json", "--p", "0.4", "-n", "4", "--normalize"
    )
    yield "section deviatoric outside the cap", _section("deviatoric", "cap-bp.json", "--p", "2")
    yield "section biaxial", _section("biaxial", "cap-bp.json")
    yield "section biaxial normalize", _section("biaxial", "cap-willam-warnke.json", "-n", "10", "--normalize")
    yield "section biaxial linear", _section("biaxial", "linear-power-law.json", "-n", "10")
    yield "section biaxial svg", _section("biaxial", "cam-clay.json", "-n", "8", "--format", "svg")
    yield "section meridian svg", _section("meridian", "cam-clay.json", "-n", "6", "--format", "svg")
    yield "section meridian n=1", _section("meridian", "cap-bp.json", "-n", "1")
    yield "section biaxial n=2", _section("biaxial", "cap-bp.json", "-n", "2")
    yield "section biaxial g underflow --unchecked", _section(
        "biaxial", "power-law-underflow.json", "--unchecked", "-n", "8"
    )
    yield "section biaxial unbounded n=4", _section("biaxial", "linear-unbounded.json", "-n", "4")


def _fit_cases():
    yield "fit", _fit("points.csv", "problem.json")
    yield "fit function_value", _fit("principal.csv", "problem-fv.json")
    yield "fit bounds and init", _fit("points.csv", "problem-bounds.json")
    yield "fit one point", _fit("one-point.csv", "problem.json")
    yield "fit not converged", _fit("scatter.csv", "problem-five.json")
    yield "fit fewer points than free", _fit("one-point.csv", "problem-two.json")
    for name in ("no-free", "no-free-key", "unknown-free", "bad-bound", "bad-mode", "list", "free-number",
                 "free-string", "seed-string", "seed-negative", "seed-fraction", "bounds-list",
                 "bound-short", "bound-string", "init-string", "init-bool", "bound-unknown",
                 "init-not-free"):
        yield f"fit problem {name}", _fit("points.csv", f"problem-{name}.json")
    for name in ("nan-row", "bad-header", "short-row", "not-utf8", "tiny-q"):
        yield f"fit data {name}", _fit(f"{name}.csv", "problem.json")
    yield "fit data missing", _fit("nope.csv", "problem.json")
    yield "fit problem missing", _fit("points.csv", "nope.json")


def _compare_cases():
    yield "compare gurson", ["compare", "gurson", "--f", "0.3", "--sigma-m", "1.0", "-n", "6"]
    yield "compare gurson q", ["compare", "gurson", "--f", "0.1", "--sigma-m", "2.0", "--q1", "1.2",
                               "--q2", "0.9", "--q3", "1.44", "-n", "5"]
    yield "compare newman", ["compare", "newman", "--fc", "1.0", "--params", "concrete.json", "-n", "5"]
    yield "compare newman sigma3-max", ["compare", "newman", "--fc", "30", "--params", "concrete.json",
                                        "--sigma3-max", "1.5", "-n", "4"]
    yield "compare gurson n=1", ["compare", "gurson", "--f", "0.3", "--sigma-m", "1.0", "-n", "1"]
    yield "compare gurson bad f", ["compare", "gurson", "--f", "1.5", "--sigma-m", "1.0"]
    yield "compare newman overflow", ["compare", "newman", "--fc", "1e308", "--params", "concrete.json",
                                      "--sigma3-max", "10"]


def _realize_cases():
    yield "realize von-mises", ["realize", "von-mises", "--ft", "2.0"]
    yield "realize tresca", ["realize", "tresca", "--ft", "2.0"]
    yield "realize drucker-prager", ["realize", "drucker-prager", "--fc", "2.0", "--r", "3.0"]
    yield "realize modified-tresca", ["realize", "modified-tresca", "--fc", "2.0", "--r", "3.0"]
    yield "realize coulomb-mohr", ["realize", "coulomb-mohr", "--fc", "2.0", "--r", "3.0"]
    yield "realize cam-clay", ["realize", "cam-clay", "--M", "0.75", "--pc", "1"]
    yield "realize k=100", ["realize", "von-mises", "--ft", "1", "--k", "100"]
    yield "realize k=101", ["realize", "von-mises", "--ft", "1", "--k", "101"]
    yield "realize k=3", ["realize", "coulomb-mohr", "--fc", "2.0", "--r", "3.0", "--k", "3"]
    yield "realize alpha below normal", ["realize", "drucker-prager", "--fc", "1e-70", "--r", "2",
                                         "--k", "165"]
    yield "realize missing flag", ["realize", "drucker-prager", "--r", "2.0"]
    yield "realize bad ratio", ["realize", "coulomb-mohr", "--fc", "2.0", "--r", "0.5"]


def _file_error_cases():
    for name in ("empty", "not-json", "not-utf8", "nan", "string-param", "bool-param", "huge-int",
                 "missing-param", "bad-range", "bad-kind", "bad-shape", "list", "nope"):
        yield f"eval params {name}", ["eval", "--params", f"{name}.json", "--stress=-0.5,0,0"]
        yield f"check-convexity params {name}", ["check-convexity", "--params", f"{name}.json"]
    yield "section params not-utf8", ["section", "meridian", "--params", "not-utf8.json"]
    yield "compare newman params empty", ["compare", "newman", "--fc", "1.0", "--params", "empty.json"]
    yield "fit problem not-json", ["fit", "--data", "points.csv", "--problem", "not-json.json"]


def _usage_cases():
    yield "no arguments", []
    yield "unknown subcommand", ["frobnicate"]
    yield "version", ["--version"]
    yield "eval without --stress", ["eval", "--params", "cap-bp.json"]
    yield "section unknown kind", ["section", "radial", "--params", "cap-bp.json"]
    yield "section bad -n", ["section", "meridian", "--params", "cap-bp.json", "-n", "many"]
    yield "check-convexity without --params", ["check-convexity"]
    yield "realize unknown kind", ["realize", "hoek-brown"]
    yield "compare without kind", ["compare"]
    yield "fit without --data", ["fit", "--problem", "problem.json"]


def cases():
    for group in (_eval_cases, _check_cases, _section_cases, _fit_cases, _compare_cases,
                  _realize_cases, _file_error_cases, _usage_cases):
        yield from group()


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_files(directory: pathlib.Path, text: dict[str, str], binary: dict[str, str]) -> None:
    """The input files, from the record's ``files`` and ``bytes_files`` (hex)."""
    for name, content in text.items():
        (directory / name).write_text(content, encoding="utf-8")
    for name, content in binary.items():
        (directory / name).write_bytes(bytes.fromhex(content))


def main() -> None:
    text, binary = files(), {k: v.hex() for k, v in bytes_files().items()}
    records = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_files(pathlib.Path(tmp), text, binary)
        os.chdir(tmp)
        try:
            for label, argv in cases():
                code, out, err = run(argv)
                records.append({"label": label, "argv": argv, "exit": code, "stdout": out, "stderr": err})
        finally:
            os.chdir(cwd)
    labels = [r["label"] for r in records]
    if len(set(labels)) != len(labels):
        raise SystemExit("duplicate case labels")
    body = ",\n".join(json.dumps(r, allow_nan=False) for r in records)
    doc = '{"files": ' + json.dumps(text, indent=1) + ',\n"bytes_files": ' + json.dumps(binary)
    OUT.write_text(doc + ',\n"cases": [\n' + body + "\n]}\n", encoding="utf-8")
    print(f"wrote {len(records)} commands to {OUT}")


if __name__ == "__main__":
    main()
