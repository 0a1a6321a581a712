import json
import math

import numpy as np
import pytest

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
        assert d["theta"] == pytest.approx(0.0, abs=1e-8)
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
        assert first[1] == pytest.approx(0.0, abs=1e-8)

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


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 1

    def test_no_arguments(self, capsys):
        assert run(capsys, [])[0] == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["check-convexity", "--params", "/nonexistent.json"])
        assert code == 2
