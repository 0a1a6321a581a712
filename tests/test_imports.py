"""No command loads scipy, and eval and check-convexity load no numpy.

Importing scipy.optimize would take most of a CLI process's start-up, so
``import yieldcrit`` and every command, ``fit`` included, run on numpy
alone.  Importing numpy takes most of what is left, so ``import yieldcrit``,
``import yieldcrit.cli`` and the scalar commands do without it; the
package resolves the names of its array modules on first use.  The import
checks run in a fresh interpreter, since the test process itself has
numpy and scipy loaded; the lazily resolved names are checked in process.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import yieldcrit
from yieldcrit import calibration

CAM_CLAY = {"M": 0.75, "pc": 1.0, "c": 0.0, "m": 2.0, "alpha": 1.0, "beta": 1.0, "gamma": 0.0}

SCRIPT = """
import contextlib, io, json, sys

def scipy_loaded():
    return any(name.split(".")[0] == "scipy" for name in sys.modules)

import yieldcrit, yieldcrit.cli
seen = {"import": scipy_loaded()}
for argv in (
    ["eval", "--params", "params.json", "--stress=-1,-0.5,-0.2"],
    ["check-convexity", "--params", "params.json"],
    ["section", "biaxial", "--params", "params.json", "-n", "16"],
    ["compare", "gurson", "--f", "0.3", "--sigma-m", "1.0", "-n", "5"],
    ["realize", "cam-clay", "--M", "0.75", "--pc", "1"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = yieldcrit.cli.main(argv)
    seen[argv[0]] = (code, scipy_loaded())
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = yieldcrit.cli.main(["fit", "--data", "points.csv", "--problem", "problem.json"])
seen["fit"] = (code, json.loads(out.getvalue())["converged"], scipy_loaded())
print(json.dumps(seen))
"""


def _run(script: str, cwd, *args: str):
    """The JSON that ``script`` prints, run in a fresh interpreter in ``cwd``."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(yieldcrit.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", script, *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_no_command_loads_scipy(tmp_path):
    (tmp_path / "params.json").write_text(json.dumps(CAM_CLAY), encoding="utf-8")
    (tmp_path / "points.csv").write_text(
        "p,q,theta\n0.2,0.3,1.0471975511965976\n0.5,0.375,1.0471975511965976\n"
        "0.8,0.3,1.0471975511965976\n",
        encoding="utf-8",
    )
    problem = {"criterion": dict(CAM_CLAY, M=0.5), "free": ["M"], "residual_mode": "meridian_distance"}
    (tmp_path / "problem.json").write_text(json.dumps(problem), encoding="utf-8")
    seen = _run(SCRIPT, tmp_path)
    assert seen["import"] is False
    for cmd in ("eval", "check-convexity", "section", "compare", "realize"):
        assert seen[cmd] == [0, False], cmd
    assert seen["fit"] == [0, True, False]


def test_optimizers_are_module_attributes():
    from scipy.optimize import least_squares, minimize

    assert getattr(calibration, "least_squares") is least_squares
    assert calibration.minimize is minimize
    with pytest.raises(AttributeError):
        calibration.no_such_optimizer


MERIDIANS = {
    "cap": {"meridian": "bp", "M": 0.75, "pc": 1.0, "c": 0.1, "m": 2.0, "alpha": 1.0},
    "linear": {"meridian": "linear", "Gamma": 0.8, "c": 0.2},
}
SHAPES = {
    "bp": {"beta": 0.6, "gamma": 0.8},
    "power-law": {"deviatoric": {"kind": "power-law", "beta": 0.8, "n": 3.0}},
    "willam-warnke": {"deviatoric": {"kind": "willam-warnke", "e": 0.7}},
    "gudehus-argyris": {"deviatoric": {"kind": "gudehus-argyris", "k": 0.9}},
}
# interior, theta = pi/3, hydrostatic and outside a cap: every branch of eval
STRESSES = ("-0.6,-0.3,-0.1", "-0.2,-0.2,-0.6", "-0.4,-0.4,-0.4", "0.5,0.5,0.2")

NUMPY_SCRIPT = """
import contextlib, io, json, sys

def numpy_loaded():
    return "numpy" in sys.modules

import yieldcrit
seen = {"import yieldcrit": numpy_loaded()}
import yieldcrit.cli
seen["import yieldcrit.cli"] = numpy_loaded()
scalar = []
for name in json.loads(sys.argv[1]):
    for argv in [["eval", "--params", name, "--stress=" + s] for s in json.loads(sys.argv[2])] + [
        ["check-convexity", "--params", name], ["eval", "--params", name, "--stress=1e120,0,0"],
    ]:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            scalar.append((argv, yieldcrit.cli.main(argv), numpy_loaded()))
seen["scalar"] = scalar
seen["array"] = []
for argv in (
    ["section", "biaxial", "--params", "cap-bp.json", "-n", "16"],
    ["section", "meridian", "--params", "cap-willam-warnke.json", "-n", "5"],
    ["compare", "gurson", "--f", "0.3", "--sigma-m", "1.0", "-n", "5"],
    ["fit", "--data", "points.csv", "--problem", "problem.json"],
    ["realize", "drucker-prager", "--fc", "2", "--r", "3"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        seen["array"].append((argv[0], yieldcrit.cli.main(argv)))
print(json.dumps(seen))
"""


def test_scalar_commands_load_no_numpy(tmp_path):
    names = []
    for mer, mer_fields in MERIDIANS.items():
        for shape, shape_fields in SHAPES.items():
            names.append(f"{mer}-{shape}.json")
            params = json.dumps({**mer_fields, **shape_fields})
            (tmp_path / names[-1]).write_text(params, encoding="utf-8")
    (tmp_path / "points.csv").write_text(
        "p,q,theta\n0.2,0.3,1.0471975511965976\n0.5,0.375,1.0471975511965976\n", encoding="utf-8"
    )
    problem = {"criterion": dict(CAM_CLAY, M=0.5), "free": ["M"], "residual_mode": "meridian_distance"}
    (tmp_path / "problem.json").write_text(json.dumps(problem), encoding="utf-8")
    seen = _run(NUMPY_SCRIPT, tmp_path, json.dumps(names), json.dumps(STRESSES))
    assert seen["import yieldcrit"] is False
    assert seen["import yieldcrit.cli"] is False
    assert len(seen["scalar"]) == len(names) * (len(STRESSES) + 2)
    for argv, code, loaded in seen["scalar"]:
        assert code == (2 if "--stress=1e120,0,0" in argv else 0), argv
        assert loaded is False, argv
    # the array commands still run, in the same process, once numpy loads
    assert seen["array"] == [["section", 0], ["section", 0], ["compare", 0], ["fit", 0], ["realize", 0]]


PACKAGE = pathlib.Path(yieldcrit.__file__).parent
# the modules ``import yieldcrit`` binds as attributes (``invariants`` is the function)
SUBMODULES = sorted(
    p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "cli", "invariants")
)

NAMES_SCRIPT = """
import json, sys, types
import yieldcrit
if sys.argv[1] == "star":
    names = {}
    exec("from yieldcrit import *", names)
    print(json.dumps([n for n in yieldcrit.__all__ if n not in names]))
else:
    missing = [n for n in yieldcrit.__all__ if getattr(yieldcrit, n, None) is None]
    missing += [n for n in json.loads(sys.argv[2])
                if not isinstance(getattr(yieldcrit, n, None), types.ModuleType)]
    print(json.dumps(missing))
"""


@pytest.mark.parametrize("how", ["getattr", "star"])
def test_every_public_name_resolves_after_a_bare_import(tmp_path, how):
    assert set(SUBMODULES) >= {"calibration", "sections", "trf", "criterion", "limits"}
    assert _run(NAMES_SCRIPT, tmp_path, how, json.dumps(SUBMODULES)) == []


def test_lazy_names_are_the_module_attributes():
    from yieldcrit import sections, trf

    assert yieldcrit.fit is calibration.fit and yieldcrit.FitProblem is calibration.FitProblem
    assert yieldcrit.sample_biaxial is sections.sample_biaxial
    assert yieldcrit.trf is trf
    with pytest.raises(AttributeError):
        yieldcrit.no_such_name
