"""No command loads scipy.

Importing scipy.optimize would take most of a CLI process's start-up, so
``import yieldcrit`` and every command, ``fit`` included, run on numpy
alone.  The import checks run in a fresh interpreter, since the test
process itself has scipy loaded; the lazily resolved scipy names are
checked in process.
"""

import json
import os
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


def test_no_command_loads_scipy(tmp_path):
    (tmp_path / "params.json").write_text(json.dumps(CAM_CLAY), encoding="utf-8")
    (tmp_path / "points.csv").write_text(
        "p,q,theta\n0.2,0.3,1.0471975511965976\n0.5,0.375,1.0471975511965976\n"
        "0.8,0.3,1.0471975511965976\n",
        encoding="utf-8",
    )
    problem = {"criterion": dict(CAM_CLAY, M=0.5), "free": ["M"], "residual_mode": "meridian_distance"}
    (tmp_path / "problem.json").write_text(json.dumps(problem), encoding="utf-8")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(yieldcrit.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout)
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
