import contextlib
import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yieldcrit.cli import main

CAM_CLAY = {"M": 0.75, "pc": 1.0, "c": 0.0, "m": 2.0, "alpha": 1.0, "beta": 1.0, "gamma": 0.0}


@pytest.fixture
def cam_clay_file(tmp_path):
    path = tmp_path / "cam_clay.json"
    path.write_text(json.dumps(CAM_CLAY), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRealize:
    def test_cam_clay(self, capsys):
        code, out, _ = run(capsys, ["realize", "cam-clay", "--M", "0.75", "--pc", "1"])
        assert code == 0
        d = json.loads(out)
        assert (d["m"], d["alpha"], d["c"], d["beta"], d["gamma"]) == (2.0, 1.0, 0.0, 1.0, 0.0)
        assert d["M"] == 0.75

    def test_von_mises_has_warnings_field_only_when_needed(self, capsys):
        code, out, _ = run(capsys, ["realize", "von-mises", "--ft", "2.0"])
        assert code == 0
        d = json.loads(out)
        assert d["meridian"] == "bp"
        assert "warnings" not in d
        code, out, _ = run(capsys, ["realize", "tresca", "--ft", "2.0"])
        d = json.loads(out)
        assert any("gamma" in w for w in d["warnings"])

    def test_missing_strength_flag(self, capsys):
        code, _, err = run(capsys, ["realize", "drucker-prager", "--r", "2.0"])
        assert code == 2
        assert "--fc" in err

    def test_realized_params_load_back(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["realize", "coulomb-mohr", "--fc", "2.0", "--r", "3.0"])
        assert code == 0
        params = tmp_path / "cm.json"
        params.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, ["eval", "--params", str(params), "--stress=-2,0,0"])
        assert code == 0
        d = json.loads(out)
        assert abs(d["F"]) <= 1e-3


class TestEval:
    def test_invariants_echo(self, capsys, cam_clay_file):
        code, out, _ = run(capsys, ["eval", "--params", cam_clay_file, "--stress", "1,0,0"])
        assert code == 0
        d = json.loads(out)
        assert d["p"] == pytest.approx(-1.0 / 3.0)
        assert d["q"] == pytest.approx(1.0)
        assert d["theta"] == 0.0
        # outside the cap: p < -c, so F is the infinite sentinel
        assert d["F"] == "+inf"
        assert d["gradient"] is None

    def test_overflowing_stress_exits_2(self, capsys, cam_clay_file):
        code, out, err = run(capsys, ["eval", "--params", cam_clay_file, "--stress=1e120,0,0"])
        assert code == 2
        assert out == ""
        assert "at most 1e+100" in err

    def test_interior_gradient(self, capsys, cam_clay_file):
        code, out, _ = run(
            capsys, ["eval", "--params", cam_clay_file, "--stress=-0.4,-0.5,-0.6"]
        )
        assert code == 0
        d = json.loads(out)
        assert isinstance(d["F"], float) and d["F"] < 0.0
        assert len(d["gradient"]) == 3
        assert np.linalg.norm(d["unit_normal"]) == pytest.approx(1.0, abs=1e-12)

    def test_inline_params(self, capsys):
        argv = ["eval", "--stress=-0.4,-0.5,-0.6"]
        for k, v in CAM_CLAY.items():
            argv += [f"--{k}", str(v)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["F"] < 0.0

    def test_degrees_flag(self, capsys, cam_clay_file):
        code, out, _ = run(
            capsys, ["eval", "--params", cam_clay_file, "--stress=-1,0,0", "--degrees"]
        )
        assert json.loads(out)["theta"] == pytest.approx(60.0, abs=1e-6)

    def test_bad_stress(self, capsys, cam_clay_file):
        code, _, err = run(capsys, ["eval", "--params", cam_clay_file, "--stress", "1,2"])
        assert code == 2
        assert "three" in err


class TestCheckConvexity:
    def test_admissible(self, capsys, cam_clay_file):
        code, out, _ = run(capsys, ["check-convexity", "--params", cam_clay_file])
        assert code == 0
        assert json.loads(out)["admissible"] is True

    def test_inadmissible_nonzero_exit_with_witness(self, capsys, tmp_path):
        bad = dict(CAM_CLAY, beta=4.5, gamma=0.5)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        code, out, _ = run(capsys, ["check-convexity", "--params", str(path)])
        assert code == 2
        report = json.loads(out)
        assert report["admissible"] is False
        assert 0.0 <= report["deviatoric_worst"]["theta"] <= math.pi / 3.0

    def test_uncertified_params_rejected_elsewhere(self, capsys, tmp_path):
        bad = dict(CAM_CLAY, beta=4.5, gamma=0.5)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        code, _, err = run(capsys, ["eval", "--params", str(path), "--stress", "0,0,0"])
        assert code == 2
        code, out, _ = run(
            capsys,
            ["eval", "--params", str(path), "--stress=-0.4,-0.5,-0.6", "--unchecked"],
        )
        assert code == 0


class TestNonFiniteParams:
    @pytest.mark.parametrize(
        "text",
        [
            '{"M": NaN, "pc": 1.0, "c": 0.1, "m": Infinity, "alpha": 1.0, "beta": 1.0, "gamma": 0.0}',
            '{"M": 1.0, "pc": Infinity, "c": 0.1, "m": 2.0, "alpha": 1.0, "beta": 1.0, "gamma": 0.0}',
        ],
    )
    @pytest.mark.parametrize(
        "argv", [["eval", "--stress=-1,0,0"], ["eval", "--stress=-1,0,0", "--unchecked"], ["check-convexity"]]
    )
    def test_rejected_with_exit_2(self, capsys, tmp_path, text, argv):
        path = tmp_path / "nonfinite.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, argv + ["--params", str(path)])
        assert code == 2
        assert "NaN" not in out and "Infinity" not in out
        assert "must be finite" in err


class TestNonNumericParams:
    @pytest.mark.parametrize(
        "params, key, value",
        [
            ({**CAM_CLAY, "M": "x"}, "M", "'x'"),
            ({**CAM_CLAY, "A": None}, "A", "None"),
            (
                {
                    **{k: v for k, v in CAM_CLAY.items() if k not in ("beta", "gamma")},
                    "deviatoric": {"kind": "bp", "beta": "a", "gamma": 0.0},
                },
                "beta",
                "'a'",
            ),
            ({**CAM_CLAY, "M": True}, "M", "True"),
            ({**CAM_CLAY, "pc": "12.5"}, "pc", "'12.5'"),
            ({**CAM_CLAY, "B": False}, "B", "False"),
            (
                {
                    **{k: v for k, v in CAM_CLAY.items() if k not in ("beta", "gamma")},
                    "deviatoric": {"kind": "bp", "beta": 1.0, "gamma": [0.0]},
                },
                "gamma",
                "[0.0]",
            ),
        ],
        ids=["M", "A", "deviatoric-beta", "M-bool", "pc-string", "B-bool", "deviatoric-gamma-list"],
    )
    @pytest.mark.parametrize(
        "argv", [["eval", "--stress=-0.5,0,0"], ["eval", "--stress=-0.5,0,0", "--unchecked"], ["check-convexity"]]
    )
    def test_rejected_with_exit_2(self, capsys, tmp_path, params, key, value, argv):
        path = tmp_path / "nonnumeric.json"
        path.write_text(json.dumps(params), encoding="utf-8")
        code, out, err = run(capsys, argv + ["--params", str(path)])
        assert code == 2
        assert out == ""
        assert err == f"yieldcrit: {key} must be a number, got {value}\n"


class TestLinearMeridianCheck:
    def test_admissible_report_with_null_meridian_witness(self, capsys, tmp_path):
        path = tmp_path / "linear.json"
        path.write_text(
            json.dumps({"meridian": "linear", "Gamma": 0.8, "c": 0.2, "beta": 1.0, "gamma": 0.0}),
            encoding="utf-8",
        )
        code, out, err = run(capsys, ["check-convexity", "--params", str(path)])
        assert code == 0, err
        report = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-finite {c} in JSON"))
        assert report["admissible"] is True
        assert report["meridian_worst"] == {"phi": None, "margin": None}


class TestSection:
    def test_meridian_csv_deterministic(self, capsys, cam_clay_file):
        argv = ["section", "meridian", "--params", cam_clay_file, "--theta", "0", "-n", "9"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0].startswith("# {")
        assert lines[1] == "p,q"
        assert len(lines) == 11

    def test_svg_output(self, capsys, cam_clay_file, tmp_path):
        out_file = tmp_path / "curve.svg"
        code, _, _ = run(
            capsys,
            [
                "section", "deviatoric", "--params", cam_clay_file,
                "--p", "0.5", "-n", "24", "--format", "svg", "-o", str(out_file),
            ],
        )
        assert code == 0
        assert out_file.read_text(encoding="utf-8").startswith("<svg")

    def test_biaxial(self, capsys, cam_clay_file):
        code, out, _ = run(
            capsys, ["section", "biaxial", "--params", cam_clay_file, "-n", "12"]
        )
        assert code == 0
        assert out.strip().split("\n")[1] == "sigma1,sigma2"


# One file per meridian kind and apex: c = 0 puts a cap apex at the origin.
SECTION_PARAMS = {
    "cam-clay": CAM_CLAY,
    "cap": {
        "M": 0.9, "pc": 2.0, "c": 0.3, "m": 2.2, "alpha": 0.9, "beta": 0.5, "gamma": 0.7, "A": 0.1
    },
    "linear": {"meridian": "linear", "Gamma": 1.0, "c": 1.0, "beta": 1.0, "gamma": 0.5},
    "cone": {"meridian": "linear", "Gamma": 0.8, "c": 0.0, "beta": 0.0, "gamma": 0.0},
}


@pytest.fixture(scope="module")
def section_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("params")
    files = {}
    for name, d in SECTION_PARAMS.items():
        files[name] = str(base / f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump(d, fh)
    return files


@given(
    kind=st.sampled_from(["meridian", "deviatoric", "biaxial"]),
    params=st.sampled_from(sorted(SECTION_PARAMS)),
    n=st.integers(-2, 8),
    # the apices of the files and points beyond them
    p=st.one_of(st.sampled_from([-2.0, -1.0, -0.3, 0.0, 2.0]), st.floats(-3.0, 3.0)),
    theta=st.floats(-1.0, 2.0),
    normalize=st.booleans(),
    fmt=st.sampled_from(["csv", "svg"]),
)
@settings(max_examples=200, deadline=None)
def test_section_fuzz(section_files, kind, params, n, p, theta, normalize, fmt):
    argv = ["section", kind, "--params", section_files[params], "-n", str(n)]
    argv += [f"--p={p!r}", f"--theta={theta!r}", "--format", fmt]
    argv += ["--normalize"] if normalize else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    if code != 0:
        assert out == "" and err, argv
        assert "Traceback" not in err
        return
    if fmt == "svg":
        assert ET.fromstring(out).tag.endswith("svg")
        return
    lines = out.split("\n")
    assert lines[0].startswith("# ") and lines[-1] == ""
    assert isinstance(json.loads(lines[0][2:]), dict)
    rows = [[float(v) for v in line.split(",")] for line in lines[2:-1]]
    assert len(rows) == {"meridian": n, "deviatoric": 6 * (n - 1), "biaxial": n}[kind]
    assert all(len(r) == 2 and all(math.isfinite(v) for v in r) for r in rows), argv


class TestFit:
    def test_end_to_end(self, capsys, tmp_path):
        from yieldcrit import YieldParams, surface_q

        truth = YieldParams(**CAM_CLAY)
        crit = truth.criterion()
        rows = ["p,q,theta"]
        for p in np.linspace(0.05, 0.95, 20):
            rows.append(f"{p},{surface_q(float(p), 0.0, crit)},0.0")
        data = tmp_path / "data.csv"
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        problem = tmp_path / "problem.json"
        problem.write_text(
            json.dumps(
                {
                    "criterion": dict(CAM_CLAY, M=0.5),
                    "free": ["M"],
                    "residual_mode": "meridian_distance",
                    "seed": 0,
                }
            ),
            encoding="utf-8",
        )
        out_file = tmp_path / "fit.json"
        code, _, _ = run(
            capsys,
            ["fit", "--data", str(data), "--problem", str(problem), "-o", str(out_file)],
        )
        assert code == 0
        result = json.loads(out_file.read_text(encoding="utf-8"))
        assert result["converged"] is True
        assert result["free"]["M"] == pytest.approx(0.75, rel=1e-6)
        assert result["rms"] <= 1e-10

    def test_missing_problem_key(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("p,q,theta\n0.5,0.3,0\n", encoding="utf-8")
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({"criterion": CAM_CLAY}), encoding="utf-8")
        code, _, err = run(capsys, ["fit", "--data", str(data), "--problem", str(problem)])
        assert code == 2
        assert "free" in err

    @pytest.mark.parametrize("row", ["0.5,0.3,nan", "nan,0.3,0.1"])
    def test_non_finite_row_is_refused_before_fitting(self, capsys, tmp_path, row):
        data = tmp_path / "d.csv"
        data.write_text(f"p,q,theta\n0.5,0.3,0\n{row}\n", encoding="utf-8")
        problem = tmp_path / "p.json"
        problem.write_text(
            json.dumps({"criterion": CAM_CLAY, "free": ["M"], "residual_mode": "meridian_distance"}),
            encoding="utf-8",
        )
        code, out, err = run(capsys, ["fit", "--data", str(data), "--problem", str(problem)])
        assert code == 2
        assert out == ""
        assert "line 3" in err

    def test_no_free_parameter_is_refused(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("p,q,theta\n0.5,0.3,0\n0.2,0.4,0\n", encoding="utf-8")
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({"criterion": CAM_CLAY, "free": []}), encoding="utf-8")
        code, out, err = run(capsys, ["fit", "--data", str(data), "--problem", str(problem)])
        assert (code, out) == (2, "")
        assert err.startswith("yieldcrit: no free parameters to fit;")


class TestCompare:
    def test_gurson_curves(self, capsys):
        code, out, _ = run(
            capsys, ["compare", "gurson", "--f", "0.3", "--sigma-m", "1.0", "-n", "21"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# {")
        assert lines[1] == "p,q_model,q_reference"
        assert len(lines) == 2 + 21
        first = [float(v) for v in lines[2].split(",")]
        # hydrostatic intercept: both surfaces close at p = -pc
        assert first[1] == 0.0

    def test_newman_curves(self, capsys, tmp_path):
        params = {
            "M": 0.82, "pc": 100.0, "c": 0.1, "m": 2.0, "alpha": 0.05,
            "beta": 1.0, "gamma": 0.0,
        }
        path = tmp_path / "concrete.json"
        path.write_text(json.dumps(params), encoding="utf-8")
        code, out, _ = run(
            capsys,
            ["compare", "newman", "--fc", "1.0", "--params", str(path), "-n", "10"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2 + 10
        row = [float(v) for v in lines[2].split(",")]
        assert row[2] == pytest.approx(1.0)  # sigma3 = 0: q_ref = fc


# a file that is empty, one that is not JSON and one that is not UTF-8, with
# the line each error is reported at
BROKEN_JSON = {
    "empty": (b"", 1, "is not valid JSON: Expecting value"),
    "not-json": (b'{"M": 1.0,\n "pc": \n', 3, "is not valid JSON: Expecting value"),
    "not-utf8": (b'{"M": 1.0,\n "pc": "\xff"}\n', 2, "is not UTF-8 text: invalid start byte at byte 19"),
}


class TestBrokenJsonFiles:
    @pytest.mark.parametrize("kind", sorted(BROKEN_JSON))
    @pytest.mark.parametrize(
        "argv",
        [["eval", "--stress=-0.5,0,0", "--params"], ["check-convexity", "--params"],
         ["section", "meridian", "--params"], ["fit", "--data", "DATA", "--problem"]],
        ids=["eval", "check-convexity", "section", "fit"],
    )
    def test_exit_2_with_the_path_and_line(self, capsys, tmp_path, kind, argv):
        content, line, message = BROKEN_JSON[kind]
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        data = tmp_path / "d.csv"
        data.write_text("p,q,theta\n0.5,0.3,0\n0.2,0.4,0\n", encoding="utf-8")
        argv = [str(data) if a == "DATA" else a for a in argv]
        code, out, err = run(capsys, argv + [str(path)])
        assert (code, out) == (2, "")
        assert err == f"yieldcrit: line {line}: {path} {message}\n"

    @pytest.mark.parametrize("argv", [["eval", "--stress=-0.5,0,0"], ["check-convexity"]])
    def test_an_integer_too_large_for_a_float_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({**CAM_CLAY, "M": 10**400}), encoding="utf-8")
        code, out, err = run(capsys, argv + ["--params", str(path)])
        assert (code, out) == (2, "")
        assert err == "yieldcrit: M must be finite, got an integer too large for a float\n"


class TestFitInputFiles:
    """A problem JSON or a --data CSV that fit cannot read exits 2 with the
    key or the path in the message, never with a traceback."""

    PROBLEM = {"criterion": CAM_CLAY, "free": ["M"]}

    def _fit(self, capsys, tmp_path, spec, data=b"p,q,theta\n0.5,0.3,0\n0.2,0.4,0\n"):
        """(exit code, stderr) of fit on a problem file ``spec`` and a CSV of
        bytes ``data``, or of no CSV file at all for None; stdout must be empty."""
        (tmp_path / "p.json").write_text(json.dumps(spec), encoding="utf-8")
        if data is not None:
            (tmp_path / "d.csv").write_bytes(data)
        argv = ["fit", "--data", str(tmp_path / "d.csv"), "--problem", str(tmp_path / "p.json")]
        code, out, err = run(capsys, argv)
        assert out == ""
        return code, err

    def test_a_problem_that_is_a_list(self, capsys, tmp_path):
        assert self._fit(capsys, tmp_path, [self.PROBLEM]) == (
            2, "yieldcrit: problem JSON must be an object, got list\n"
        )

    def test_a_seed_that_is_a_string(self, capsys, tmp_path):
        assert self._fit(capsys, tmp_path, {**self.PROBLEM, "seed": "x"}) == (
            2, "yieldcrit: seed must be an integer of at least 0, got 'x'\n"
        )

    def test_a_negative_seed(self, capsys, tmp_path):
        assert self._fit(capsys, tmp_path, {**self.PROBLEM, "seed": -1}) == (
            2, "yieldcrit: seed must be an integer of at least 0, got -1\n"
        )

    def test_free_that_is_a_number(self, capsys, tmp_path):
        assert self._fit(capsys, tmp_path, {**self.PROBLEM, "free": 3}) == (
            2, "yieldcrit: free must be a list of parameter names, got 3\n"
        )

    def test_bounds_that_are_a_list(self, capsys, tmp_path):
        assert self._fit(capsys, tmp_path, {**self.PROBLEM, "bounds": [1, 2]}) == (
            2, "yieldcrit: bounds must be an object of [low, high] pairs by name, got [1, 2]\n"
        )

    def test_a_bound_that_is_not_a_pair(self, capsys, tmp_path):
        assert self._fit(capsys, tmp_path, {**self.PROBLEM, "bounds": {"M": [1]}}) == (
            2, "yieldcrit: bounds for 'M' must be [low, high], got [1]\n"
        )

    @pytest.mark.parametrize("end", ["x", True, None])
    def test_a_bound_that_is_not_a_finite_number(self, capsys, tmp_path, end):
        spec = {**self.PROBLEM, "bounds": {"M": [0.1, end]}}
        assert self._fit(capsys, tmp_path, spec) == (
            2, f"yieldcrit: each bound for 'M' must be a number, got {end!r}\n"
        )

    def test_an_init_value_that_is_a_string(self, capsys, tmp_path):
        assert self._fit(capsys, tmp_path, {**self.PROBLEM, "init": {"M": "x"}}) == (
            2, "yieldcrit: init 'M' must be a number, got 'x'\n"
        )

    def test_an_init_value_that_is_a_bool(self, capsys, tmp_path):
        # a parameter file refuses a bool, and so does init; it is not taken as 1.0
        assert self._fit(capsys, tmp_path, {**self.PROBLEM, "init": {"M": True}}) == (
            2, "yieldcrit: init 'M' must be a number, got True\n"
        )

    def test_a_bound_for_no_parameter_of_the_template(self, capsys, tmp_path):
        assert self._fit(capsys, tmp_path, {**self.PROBLEM, "bounds": {"Q": [1, 2]}}) == (
            2, "yieldcrit: parameter 'Q' does not apply to this template\n"
        )

    @pytest.mark.parametrize("extra", ["m", "Q"])
    def test_an_init_value_for_a_parameter_that_is_not_free(self, capsys, tmp_path, extra):
        spec = {**self.PROBLEM, "init": {"M": 0.6, extra: 3}}
        assert self._fit(capsys, tmp_path, spec) == (
            2, f"yieldcrit: init must name only free parameters; not free: [{extra!r}]\n"
        )

    def test_data_that_is_not_utf8(self, capsys, tmp_path):
        code, err = self._fit(capsys, tmp_path, self.PROBLEM, b"p,q,theta\n0.5,0.3,0\n0.2,0.4,\xff\n")
        message = f"line 3: {tmp_path / 'd.csv'} is not UTF-8 text: invalid start byte at byte 28"
        assert (code, err) == (2, f"yieldcrit: {message}\n")

    def test_missing_data_file(self, capsys, tmp_path):
        code, err = self._fit(capsys, tmp_path, self.PROBLEM, None)
        path = str(tmp_path / "d.csv")
        assert (code, err) == (2, f"yieldcrit: [Errno 2] No such file or directory: {path!r}\n")


# ---------------------------------------------------------------------------
# fit problems: each rule is the library's, and the CLI reports it
# ---------------------------------------------------------------------------

# three Cam-clay-like points, so a fit is quick and up to three names are free
FIT_DATA = "p,q,theta\n0.2,0.45,0\n0.5,0.55,0\n0.8,0.35,0\n"

_NAMES = st.sampled_from(["M", "m", "pc", "c", "alpha", "beta", "gamma", "A", "Gamma", "Q"])
_JUNK = st.one_of(
    st.booleans(), st.none(), st.sampled_from(["x", "1", "", math.nan, math.inf, -math.inf]),
    st.lists(st.floats(0.1, 2.0), max_size=2),
)
_NUMBERS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, -1.0]), st.integers(-2, 5),
                     st.floats(-2.0, 5.0))
_VALUES = st.one_of(_NUMBERS, _JUNK)
_FREE = st.lists(st.sampled_from(["M", "m", "alpha", "c"]), min_size=1, max_size=3, unique=True)
_ANYTHING = st.one_of(st.lists(_NAMES, max_size=3), st.lists(_VALUES, max_size=2), _NAMES, _JUNK)
_PROBLEMS = st.fixed_dictionaries(
    {"criterion": st.just(CAM_CLAY),
     # names the template fits half the time, anything else the other half
     "free": st.booleans().flatmap(lambda fits: _FREE if fits else _ANYTHING)},
    optional={
        # a bound drawn as two numbers, short, long, as one value or with a bad end
        "bounds": st.dictionaries(
            _NAMES, st.one_of(st.lists(_NUMBERS, min_size=2, max_size=2), st.lists(_VALUES, max_size=3), _VALUES),
            max_size=2,
        ),
        # fit, not the CLI, refuses an init that is not an object
        "init": st.one_of(st.none(), st.dictionaries(_NAMES, _VALUES, max_size=3), _ANYTHING),
        "seed": st.one_of(st.integers(-2, 2**40), st.floats(-1.0, 3.0), _JUNK),
        "residual_mode": st.sampled_from(["meridian_distance", "function_value", "nearest", 3]),
    },
)


@pytest.fixture(scope="module")
def fit_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fit")
    (base / "d.csv").write_text(FIT_DATA, encoding="utf-8")
    return base


@given(spec=_PROBLEMS)
@settings(max_examples=100, deadline=None)
def test_fit_problem_rules_are_the_librarys(fit_dir, spec):
    from yieldcrit import FitProblem, YieldCritError, criterion_from_dict, fit, load_dataset

    # the values the CLI reads back, NaN and the infinities included
    spec = json.loads(json.dumps(spec))
    (fit_dir / "p.json").write_text(json.dumps(spec), encoding="utf-8")
    try:
        problem = FitProblem(
            template=criterion_from_dict(spec["criterion"], unchecked=True),
            free=spec["free"],
            bounds=tuple(spec.get("bounds", {}).items()),
            residual_mode=spec.get("residual_mode", "meridian_distance"),
        )
        result = fit(problem, load_dataset(FIT_DATA), init=spec.get("init"), seed=spec.get("seed", 0))
        refusal = None
    except YieldCritError as exc:  # any other exception fails the property
        refusal = str(exc)
    argv = ["fit", "--data", str(fit_dir / "d.csv"), "--problem", str(fit_dir / "p.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3) and "Traceback" not in err, (spec, code, err)
    if refusal is not None:
        assert (code, out, err) == (2, "", f"yieldcrit: {refusal}\n"), spec
    else:
        assert code == (0 if result.converged else 3), (spec, err)
        assert json.loads(out) == json.loads(json.dumps(result.to_dict()))


class TestRealizeScaleExponent:
    def test_last_accepted_k(self, capsys):
        code, out, _ = run(capsys, ["realize", "von-mises", "--ft", "1", "--k", "100"])
        assert code == 0
        assert json.loads(out)["pc"] == 1e100

    @pytest.mark.parametrize("k", ["101", "300", "400"])
    def test_k_past_the_stress_range_exits_2(self, capsys, k):
        code, out, err = run(capsys, ["realize", "von-mises", "--ft", "1", "--k", k])
        assert (code, out) == (2, "")
        assert err.startswith(f"yieldcrit: scale_exponent={k} puts the surrogate pc")

    def test_k_that_puts_the_alpha_surrogate_below_the_normal_floats_exits_2(self, capsys):
        argv = ["realize", "drucker-prager", "--fc", "1e-70", "--r", "2", "--k", "165"]
        assert run(capsys, argv) == (
            2, "", "yieldcrit: scale_exponent=165 puts the surrogate alpha below 2.22507e-308\n"
        )


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 1

    def test_no_arguments(self, capsys):
        assert run(capsys, [])[0] == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["check-convexity", "--params", "/nonexistent.json"])
        assert code == 2


# ---------------------------------------------------------------------------
# compare and the meridian --p-range: sample counts, ranges and fuzz
# ---------------------------------------------------------------------------


def _compare_argv(which, n, value, sigma_m, path):
    if which == "gurson":
        return ["compare", "gurson", f"--f={value!r}", f"--sigma-m={sigma_m!r}", "-n", str(n)]
    return ["compare", "newman", "--params", path, f"--fc={value!r}", "-n", str(n)]


@pytest.mark.parametrize("which", ["gurson", "newman"])
@pytest.mark.parametrize("n", [-2, -1, 0, 1])
def test_compare_refuses_fewer_than_two_samples(capsys, section_files, which, n):
    code, out, err = run(capsys, _compare_argv(which, n, 0.1, 1.0, section_files["cap"]))
    assert code == 2
    assert out == ""
    assert err == f"yieldcrit: n must be an integer of at least 2, got {n}\n"


@pytest.mark.parametrize(
    "which, value, params", [("gurson", 0.1, "cap"), ("newman", 1.0, "cap"), ("newman", 2.0, "linear")]
)
def test_compare_matches_a_scalar_loop(capsys, section_files, which, value, params):
    from yieldcrit import criterion_from_dict, gurson_equivalent, newman_invariants, surface_q
    from yieldcrit.limits import gurson_meridian_q

    code, out, _ = run(capsys, _compare_argv(which, 15, value, 1.0, section_files[params]))
    assert code == 0
    got = np.array([[float(v) for v in line.split(",")] for line in out.split("\n")[2:-1]])
    want = []
    if which == "gurson":
        gp = gurson_equivalent(value, 1.0)
        for p in np.linspace(-gp.c, gp.pc, 15):
            p = float(p)
            want.append((p, surface_q(p, 0.0, gp.criterion()), gurson_meridian_q(p, value, 1.0)))
    else:
        crit = criterion_from_dict(SECTION_PARAMS[params])
        for s3 in np.linspace(0.0, 2.0 * value, 15):
            p, q_ref, theta = newman_invariants(float(s3), value)
            q = surface_q(p, theta, crit)
            want.append((p, math.nan if q is None else q, q_ref))
    want = np.array(want)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.max(np.abs(got[ok] - want[ok])) <= 1e-12 * np.max(np.abs(want[ok]))


class TestMeridianRange:
    def test_linear_meridian_samples_the_given_range(self, capsys, section_files):
        argv = ["section", "meridian", "--params", section_files["linear"], "-n", "5"]
        code, out, err = run(capsys, argv)
        assert code == 2 and "p_range" in err
        code, out, _ = run(capsys, argv + ["--p-range=-2,3"])
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.split("\n")[2:-1]]
        assert [r[0] for r in rows] == [-2.0, -0.75, 0.5, 1.75, 3.0]
        # beyond the apex at p = -c = -1 the section is empty
        assert math.isnan(rows[0][1]) and rows[1][1] > 0.0

    def test_cap_meridian_bytes_without_a_range(self, capsys, section_files):
        from yieldcrit import criterion_from_dict, curve_to_csv, sample_meridian

        code, out, _ = run(
            capsys, ["section", "meridian", "--params", section_files["cap"], "--theta=0.3", "-n", "7"]
        )
        assert code == 0
        crit = criterion_from_dict(SECTION_PARAMS["cap"])
        assert out == curve_to_csv(sample_meridian(crit, 0.3, 7))

    @pytest.mark.parametrize("text", ["1", "1,2,3", "a,b", "0,inf", "nan,1", ""])
    def test_bad_range_exits_2(self, capsys, section_files, text):
        argv = ["section", "meridian", "--params", section_files["linear"], f"--p-range={text}"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == "" and "p-range" in err.replace("_", "-")

    @pytest.mark.parametrize("text", ["2,1", "1,1"])
    def test_reversed_range_exits_2(self, capsys, section_files, text):
        from yieldcrit import DomainError, criterion_from_dict, sample_meridian

        lo, hi = map(float, text.split(","))
        with pytest.raises(DomainError, match="p_range must run from low to high"):
            sample_meridian(criterion_from_dict(SECTION_PARAMS["cap"]), 0.3, 5, p_range=(lo, hi))
        argv = ["section", "meridian", "--params", section_files["cap"], f"--p-range={text}"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"yieldcrit: p_range must run from low to high, got ({lo}, {hi})\n"

    @pytest.mark.parametrize("params, text", [("cap", "3,5"), ("cap", "-2,-1"), ("linear", "-5,-2")])
    def test_range_with_no_surface_point_exits_2(self, capsys, section_files, params, text):
        from yieldcrit import EmptySlice, criterion_from_dict, sample_meridian

        # the cap spans [-0.3, 2] and the cone's apex is at p = -1
        lo, hi = map(float, text.split(","))
        with pytest.raises(EmptySlice, match="the section is empty"):
            sample_meridian(criterion_from_dict(SECTION_PARAMS[params]), 0.3, 5, p_range=(lo, hi))
        argv = ["section", "meridian", "--params", section_files[params], f"--p-range={text}"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"yieldcrit: no sample of p_range ({lo}, {hi}) lies on the surface")


special = st.sampled_from([math.nan, math.inf, -math.inf, 0.0])


@given(
    which=st.sampled_from(["gurson", "newman", "meridian"]),
    params=st.sampled_from(sorted(SECTION_PARAMS)),
    n=st.integers(-2, 8),
    value=st.one_of(st.floats(-0.5, 1.0), st.floats(1.0, 50.0), special),
    sigma_m=st.one_of(st.floats(-1.0, 10.0), special),
    hi=st.one_of(st.floats(-3.0, 5.0), special),
)
@settings(max_examples=200, deadline=None)
def test_compare_fuzz(section_files, which, params, n, value, sigma_m, hi):
    # value is --f for gurson, --fc for newman and the low end of the range
    # for a meridian section; sigma_m is --sigma-m for gurson
    if which == "meridian":
        path = section_files["linear" if params == "cap" else params]
        argv = ["section", "meridian", "--params", path, "-n", str(n), f"--p-range={value!r},{hi!r}"]
    else:
        argv = _compare_argv(which, n, value, sigma_m, section_files[params])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    if code != 0:
        assert out == "" and err, argv
        assert "Traceback" not in err
        return
    lines = out.split("\n")
    assert lines[0].startswith("# ") and lines[-1] == ""
    assert isinstance(json.loads(lines[0][2:]), dict)
    assert lines[1] == ("p,q" if which == "meridian" else "p,q_model,q_reference")
    rows = [[float(v) for v in line.split(",")] for line in lines[2:-1]]
    assert n >= 2 and len(rows) == n, argv
    assert all(len(r) == len(lines[1].split(",")) for r in rows), argv


# ---------------------------------------------------------------------------
# Random inputs through every input path: no traceback, strict output
# ---------------------------------------------------------------------------

_FUZZ_BASES = [
    {**CAM_CLAY, "c": 0.1, "beta": 0.6, "gamma": 0.8},
    {"M": 0.75, "pc": 1.0, "c": 0.1, "m": 2.0, "alpha": 1.0, "deviatoric": {"kind": "power-law", "beta": 0.8, "n": 3.0}},
    {"meridian": "linear", "Gamma": 0.8, "c": 0.2, "deviatoric": {"kind": "willam-warnke", "e": 0.7}, "A": 0.5},
    {"M": 0.75, "pc": 1.0, "c": 0.1, "m": 2.0, "alpha": 1.0, "deviatoric": {"kind": "gudehus-argyris", "k": 0.9}},
    # g(theta) underflows to 0 at most states, where F is +inf and the gradient undefined
    {"meridian": "linear", "Gamma": 1.0, "c": 0.5, "deviatoric": {"kind": "power-law", "beta": 1000.0, "n": 0.001}},
]
_FUZZ_KEYS = ["M", "pc", "c", "m", "alpha", "beta", "gamma", "Gamma", "A", "B", "meridian", "deviatoric"]
# numbers of every size, the non-finite ones (NaN and Infinity in the file),
# integers past the floats, and values that are not numbers
_FUZZ_VALUES = st.one_of(
    st.floats(-3.0, 5.0),
    st.integers(-2, 60),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([10**400, -(10**400), "1", "x", "", True, None, [1.0], {"kind": "bp"}, "linear", "bp"]),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["bp", "power-law", "willam-warnke", "gudehus-argyris", "hexagon", 3])},
        optional={k: st.one_of(st.floats(-1.0, 5.0), st.floats(allow_nan=True), st.sampled_from([10**400, "1", True]))
                  for k in ("beta", "gamma", "n", "e", "k")},
    ),
)


def _params_text(base, changes, dropped):
    d = {k: v for k, v in {**base, **changes}.items() if k not in dropped}
    return json.dumps(d)


_PARAMS_TEXT = st.builds(
    _params_text,
    st.sampled_from(_FUZZ_BASES),
    st.dictionaries(st.sampled_from(_FUZZ_KEYS), _FUZZ_VALUES, max_size=2),
    st.lists(st.sampled_from(_FUZZ_KEYS), max_size=1),
)
_TOKEN = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["", "x", "1e400", "-0", " 1", "nan", "0.5", "1.0471975511965976"]),
)
# three numbers of a state inside most of the files' caps half the time, anything else the other half
_STRESS_TEXT = st.one_of(
    st.lists(st.floats(-1.0, 0.1).map(repr), min_size=3, max_size=3), st.lists(_TOKEN, max_size=4)
).map(",".join)


def _csv_text(header, rows, where, token):
    """A header and rows of numbers, with ``token`` put in at (row, column) ``where``."""
    lines = [[token if (i, j) == where else v for j, v in enumerate(row)] for i, row in enumerate(rows)]
    return "\n".join([header] + [",".join(line) for line in lines]) + "\n"


# a few rows of Cam-clay-like points, with a random token put in one of them
_CSV_TEXT = st.builds(
    _csv_text,
    st.sampled_from(["p,q,theta", "p,q,theta", "s1,s2,s3", "p,q,theta,w", "x,y,z", "# comment", ""]),
    st.lists(st.lists(st.floats(0.0, 1.0).map(repr), min_size=3, max_size=3), max_size=5),
    st.one_of(st.none(), st.tuples(st.integers(0, 4), st.integers(0, 3))),
    _TOKEN,
)
_FLAG_VALUE = st.one_of(
    st.floats(0.5, 50.0).map(repr), st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "-1", "x", "1e-320"])
)


def _realize_argv(kind, flags, k):
    argv = ["realize", kind] + [f"--{name}={value}" for name, value in flags.items()]
    return argv + ([f"--k={k}"] if k is not None else [])


_REALIZE_ARGV = st.builds(
    _realize_argv,
    st.sampled_from(["von-mises", "tresca", "drucker-prager", "modified-tresca", "coulomb-mohr", "cam-clay"]),
    st.dictionaries(st.sampled_from(["ft", "fc", "r", "M", "pc"]), _FLAG_VALUE, min_size=3, max_size=5),
    st.one_of(st.none(), st.integers(3, 12).map(str), st.integers(-2, 200).map(str), st.sampled_from(["x", "2.5"])),
)


def _strict_json(text):
    """The JSON document in ``text``; ValueError for NaN or an infinity, which strict JSON has not."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


@given(
    command=st.sampled_from(["eval", "check-convexity", "section", "fit", "realize"]),
    params=_PARAMS_TEXT,
    stress=_STRESS_TEXT,
    data=_CSV_TEXT,
    realize_argv=_REALIZE_ARGV,
)
@settings(max_examples=300, deadline=None)
def test_cli_fuzz(fit_dir, command, params, stress, data, realize_argv):
    # eval and section read a random parameter file (eval also a random
    # --stress, with --unchecked, so that uncertified files reach F and the
    # gradient), check-convexity the file alone, fit a random dataset
    # against a fixed problem, and realize random flags
    (fit_dir / "params.json").write_text(params, encoding="utf-8")
    (fit_dir / "data.csv").write_text(data, encoding="utf-8")
    (fit_dir / "problem.json").write_text(json.dumps({"criterion": CAM_CLAY, "free": ["M"]}), encoding="utf-8")
    argv = {
        "eval": ["eval", "--params", str(fit_dir / "params.json"), "--unchecked", f"--stress={stress}"],
        "check-convexity": ["check-convexity", "--params", str(fit_dir / "params.json")],
        "section": ["section", "meridian", "--params", str(fit_dir / "params.json"), "-n", "5", "--p-range=-0.5,0.5"],
        "fit": ["fit", "--data", str(fit_dir / "data.csv"), "--problem", str(fit_dir / "problem.json")],
        "realize": realize_argv,
    }[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3) and "Traceback" not in err, (argv, code, err)
    if code in (1, 2) and not out:
        # a refusal says why; check-convexity's report of an inadmissible file is on stdout
        assert err, argv
    if command == "section" and code == 0:
        lines = out.split("\n")
        assert isinstance(json.loads(lines[0][2:]), dict) and lines[1] == "p,q" and lines[-1] == ""
        assert all(len([float(v) for v in line.split(",")]) == 2 for line in lines[2:-1]), argv
    elif out:
        # check-convexity writes its report with exit 2, and fit its best values with exit 3
        assert isinstance(_strict_json(out), dict), argv
