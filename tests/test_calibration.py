import math

import numpy as np
import pytest

from yieldcrit import (
    FitDataset,
    FitProblem,
    InsufficientData,
    ParseError,
    ValidationError,
    YieldParams,
    fit,
    goodness,
    load_dataset,
    residuals,
    surface_q,
)
from yieldcrit import calibration
from test_acceptance import MERIDIAN_ROWS

PI3 = math.pi / 3.0

CAM_CLAY = YieldParams(M=0.75, pc=1.0, c=0.0, m=2.0, alpha=1.0, beta=1.0, gamma=0.0)
SAND = YieldParams(M=0.5, pc=0.961, c=0.0, m=2.6, alpha=0.1, beta=0.0, gamma=0.9999)


def surface_dataset(params: YieldParams, n=40, theta=PI3, noise=0.0, seed=0) -> FitDataset:
    """Noiseless (or multiplicatively noisy) points on the yield surface."""
    crit = params.criterion()
    gen = np.random.default_rng(seed)
    rows = []
    for phi in np.linspace(0.03, 0.97, n):
        p = phi * (params.pc + params.c) - params.c
        q = surface_q(p, theta, crit)
        if noise:
            q *= 1.0 + noise * gen.standard_normal()
        rows.append((p, q, theta))
    return FitDataset(points=np.array(rows), weights=np.ones(n))


class TestLoadDataset:
    def test_minimal_invariant_file(self):
        ds = load_dataset("p,q,theta\n0.5,0.375,0\n")
        assert len(ds) == 1
        np.testing.assert_allclose(ds.points[0], [0.5, 0.375, 0.0])

    def test_principal_stress_rows(self):
        ds = load_dataset("s1,s2,s3\n1,0,0\n")
        assert len(ds) == 1
        np.testing.assert_allclose(ds.points[0], [-1.0 / 3.0, 1.0, 0.0], atol=1e-8)

    def test_malformed_row_names_line(self):
        with pytest.raises(ParseError) as err:
            load_dataset("p,q,theta\n0.5,oops,0\n")
        assert err.value.line == 2

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as err:
            load_dataset("p,q,theta\n0.5,0.1\n")
        assert err.value.line == 2

    def test_comments_and_weights(self):
        text = "# soil sample A\np,q,theta,w\n0.5,0.3,0.1,2.0\n# comment\n0.6,0.2,0.2,1.5\n"
        ds = load_dataset(text)
        assert len(ds) == 2
        np.testing.assert_allclose(ds.weights, [2.0, 1.5])

    def test_theta_out_of_range(self):
        with pytest.raises(ValidationError):
            load_dataset("p,q,theta\n0.5,0.3,2.0\n")

    def test_bad_weight(self):
        with pytest.raises(ValidationError):
            load_dataset("p,q,theta,w\n0.5,0.3,0.1,0\n")

    @pytest.mark.parametrize(
        "row", ["nan,0.3,0.1,1", "0.5,nan,0.1,1", "0.5,0.3,nan,1", "0.5,0.3,0.1,nan", "inf,0.3,0.1,1"]
    )
    def test_non_finite_value_names_line(self, row):
        with pytest.raises(ValidationError, match="line 3: values must be finite"):
            load_dataset(f"p,q,theta,w\n0.5,0.3,0.1,1\n{row}\n")

    def test_unknown_header(self):
        with pytest.raises(ParseError):
            load_dataset("a,b,c\n1,2,3\n")

    def test_file_and_handle(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("p,q,theta\n0.5,0.375,0\n", encoding="utf-8")
        assert len(load_dataset(str(path))) == 1
        with open(path, encoding="utf-8") as fh:
            assert len(load_dataset(fh)) == 1

    def test_empty_file(self):
        with pytest.raises(ParseError):
            load_dataset("p,q,theta\n")


class TestFitDataset:
    def test_nan_theta_row(self):
        with pytest.raises(ValidationError, match="finite"):
            FitDataset(points=np.array([[0.5, 0.3, 0.1], [0.5, 0.3, math.nan]]), weights=np.ones(2))

    @pytest.mark.parametrize("weight", [math.nan, math.inf, 0.0])
    def test_weight_must_be_positive_and_finite(self, weight):
        with pytest.raises(ValidationError, match="weights"):
            FitDataset(points=np.array([[0.5, 0.3, 0.1]]), weights=np.array([weight]))


class TestResiduals:
    def test_exact_surface_points_are_zero(self):
        ds = surface_dataset(CAM_CLAY, n=10)
        problem = FitProblem(template=CAM_CLAY.criterion(), free=("M",))
        r = residuals(problem, {"M": CAM_CLAY.M}, ds)
        np.testing.assert_allclose(r, 0.0, atol=1e-14)
        rf = residuals(
            FitProblem(
                template=CAM_CLAY.criterion(), free=("M",), residual_mode="function_value"
            ),
            {"M": CAM_CLAY.M},
            ds,
        )
        np.testing.assert_allclose(rf, 0.0, atol=1e-14)

    def test_meridian_distance_example(self):
        # single point at 90% of the ellipse apex radius
        q_point = 0.9 * 0.375
        ds = FitDataset(points=np.array([[0.5, q_point, 0.0]]), weights=np.ones(1))
        problem = FitProblem(template=CAM_CLAY.criterion(), free=("M",))
        r = residuals(problem, {"M": 0.75}, ds)
        assert r[0] == pytest.approx(-0.1 * 0.375 / q_point, rel=1e-12)

    def test_out_of_cap_penalty_is_finite(self):
        ds = FitDataset(points=np.array([[1.5, 0.1, 0.0]]), weights=np.array([2.0]))
        problem = FitProblem(template=CAM_CLAY.criterion(), free=("M",))
        for mode in ("meridian_distance", "function_value"):
            problem = FitProblem(template=CAM_CLAY.criterion(), free=("M",), residual_mode=mode)
            r = residuals(problem, {"M": 0.75}, ds)
            assert np.isfinite(r[0])
            # w * (1 + dist(Phi, [0,1])) with Phi = 1.5
            assert r[0] == pytest.approx(2.0 * 1.5, rel=1e-12)

    def test_bounds_enforced(self):
        ds = surface_dataset(CAM_CLAY, n=5)
        problem = FitProblem(template=CAM_CLAY.criterion(), free=("M",))
        with pytest.raises(ValidationError):
            residuals(problem, {"M": -1.0}, ds)


class TestFitProblem:
    def test_unknown_parameter(self):
        with pytest.raises(ValidationError):
            FitProblem(template=CAM_CLAY.criterion(), free=("Q",))

    def test_parameter_not_applicable(self):
        with pytest.raises(ValidationError):
            FitProblem(template=CAM_CLAY.criterion(), free=("Gamma",))

    def test_with_values(self):
        problem = FitProblem(template=CAM_CLAY.criterion(), free=("M", "m"))
        crit = problem.with_values({"M": 0.5, "m": 3.0})
        assert crit.meridian.M == 0.5
        assert crit.meridian.m == 3.0
        assert crit.meridian.pc == CAM_CLAY.pc

    def test_duplicate_free(self):
        with pytest.raises(ValidationError):
            FitProblem(template=CAM_CLAY.criterion(), free=("M", "M"))

    @pytest.mark.parametrize(
        "name, interval", [("m", (1.0, 10.0)), ("alpha", (0.0, 2.0)), ("M", (0.0, 5.0))]
    )
    def test_inadmissible_bounds(self, name, interval):
        # the bounded search may evaluate the criterion at either end
        with pytest.raises(ValidationError, match="not admissible"):
            FitProblem(template=CAM_CLAY.criterion(), free=(name,), bounds=((name, interval),))

    def test_admissible_bounds_and_unused_ones_pass(self):
        problem = FitProblem(
            template=CAM_CLAY.criterion(),
            free=("m",),
            bounds=(("m", (1.5, 10.0)), ("alpha", (0.0, 2.0))),
        )
        assert problem.bound_of("m") == (1.5, 10.0)


class TestFit:
    def test_noiseless_round_trip(self):
        ds = surface_dataset(SAND, n=40)
        problem = FitProblem(template=SAND.criterion(), free=("M", "m", "alpha"))
        result = fit(problem, ds, seed=0)
        values = dict(result.values)
        assert values["M"] == pytest.approx(SAND.M, rel=1e-3)
        assert values["m"] == pytest.approx(SAND.m, rel=1e-3)
        assert values["alpha"] == pytest.approx(SAND.alpha, rel=1e-3)
        assert result.rms <= 1e-8
        assert result.converged
        assert result.convexity.admissible

    def test_noisy_round_trip_two_free(self):
        truth = YieldParams(M=0.75, pc=1.0, c=0.2, m=3.0, alpha=1.2, beta=0.0, gamma=0.5)
        for seed in range(10):
            ds = surface_dataset(truth, n=40, noise=0.01, seed=seed)
            problem = FitProblem(template=truth.criterion(), free=("M", "m"))
            result = fit(problem, ds, seed=100 + seed)
            values = dict(result.values)
            assert values["M"] == pytest.approx(truth.M, rel=0.05)
            assert values["m"] == pytest.approx(truth.m, rel=0.05)
            assert result.rms <= 0.02

    def test_deviatoric_gamma_round_trip(self):
        # a deviatoric-section fit: points at fixed p across the sector
        truth = YieldParams(M=1.0, pc=1.0, c=0.0, m=2.0, alpha=1.0, beta=0.0, gamma=0.843)
        crit = truth.criterion()
        rows = [(0.5, surface_q(0.5, th, crit), th) for th in np.linspace(0.0, PI3, 24)]
        ds = FitDataset(points=np.array(rows), weights=np.ones(len(rows)))
        problem = FitProblem(template=crit, free=("gamma",))
        result = fit(problem, ds, seed=1)
        assert dict(result.values)["gamma"] == pytest.approx(0.843, rel=1e-3)

    def test_determinism(self):
        ds = surface_dataset(CAM_CLAY, n=20, noise=0.02, seed=3)
        problem = FitProblem(template=CAM_CLAY.criterion(), free=("M", "m"))
        r1 = fit(problem, ds, seed=7)
        r2 = fit(problem, ds, seed=7)
        assert r1.values == r2.values
        assert r1.rms == r2.rms
        assert r1.iterations == r2.iterations

    def test_monotone_vs_init(self):
        ds = surface_dataset(CAM_CLAY, n=20, noise=0.05, seed=5)
        problem = FitProblem(template=CAM_CLAY.criterion(), free=("M",))
        init = {"M": 0.6}
        result = fit(problem, ds, init=init)
        r0 = residuals(problem, init, ds)
        rms0 = float(np.sqrt(np.mean(r0 * r0)))
        assert result.rms <= rms0

    def test_insufficient_data(self):
        ds = surface_dataset(CAM_CLAY, n=2)
        problem = FitProblem(template=CAM_CLAY.criterion(), free=("M", "m", "alpha"))
        with pytest.raises(InsufficientData):
            fit(problem, ds)

    def test_result_within_admissible_bounds(self):
        ds = surface_dataset(SAND, n=25, noise=0.1, seed=11)
        problem = FitProblem(template=SAND.criterion(), free=("M", "m", "alpha"))
        result = fit(problem, ds, seed=2)
        values = dict(result.values)
        assert 0.0 < values["alpha"] < 2.0
        assert values["m"] > 1.0
        assert values["M"] > 0.0
        assert result.convexity.admissible

    @pytest.mark.parametrize("n_starts", [0, -1])
    def test_needs_a_start(self, n_starts):
        ds = surface_dataset(CAM_CLAY, n=10)
        problem = FitProblem(template=CAM_CLAY.criterion(), free=("M",))
        with pytest.raises(ValidationError, match="n_starts"):
            fit(problem, ds, n_starts=n_starts)

    def test_init_must_cover_free(self):
        ds = surface_dataset(CAM_CLAY, n=10)
        problem = FitProblem(template=CAM_CLAY.criterion(), free=("M", "m"))
        with pytest.raises(ValidationError):
            fit(problem, ds, init={"M": 0.7})

    def test_to_dict_contract(self):
        ds = surface_dataset(CAM_CLAY, n=10)
        problem = FitProblem(template=CAM_CLAY.criterion(), free=("M",))
        d = fit(problem, ds).to_dict()
        assert "rms" in d and "converged" in d
        assert d["meridian"] == "bp"


@pytest.mark.parametrize("mode", ["meridian_distance", "function_value"])
@pytest.mark.parametrize("label, row", MERIDIAN_ROWS, ids=[label for label, _ in MERIDIAN_ROWS])
def test_paper_rows_recovered_from_moved_template(label, row, mode):
    # Free (M, m, alpha) are recovered over several seeds, so that the fit
    # does not rest on one lucky seed.  Seeded starts are drawn from the
    # bounds alone; the template, moved by a factor of 2 in each free
    # parameter, is also the init of one more fit, which starts away from
    # the truth.
    truth = YieldParams(**row)
    moved = dict(row, M=2.0 * row["M"], m=2.0 * row["m"], alpha=0.5 * row["alpha"])
    problem = FitProblem(
        template=YieldParams(**moved).criterion(), free=("M", "m", "alpha"), residual_mode=mode
    )
    ds = surface_dataset(truth, n=40)
    seeds = range(10 if mode == "meridian_distance" else 5)
    runs = [{"seed": seed} for seed in seeds] + [{"init": {n: moved[n] for n in problem.free}}]
    for kwargs in runs:
        values = dict(fit(problem, ds, **kwargs).values)
        for name in ("M", "m", "alpha"):
            assert values[name] == pytest.approx(row[name], rel=1e-3), (kwargs, name)


def test_seven_free_fit_keeps_evaluation_budget():
    # With every native parameter free, some starts crawl along the
    # degenerate m -> 1, M -> inf valley until their step budget runs out.
    # The Jacobian is closed-form for every parameter, so each start may
    # spend at most its 200 trial steps, one model call each.
    truth = YieldParams(M=0.75, pc=1.0, c=0.2, m=3.0, alpha=1.2, beta=0.0, gamma=0.5)
    crit = truth.criterion()
    rows = [
        (p, surface_q(p, th, crit), th)
        for th in np.linspace(0.0, PI3, 6)
        for p in np.linspace(0.05, 0.95, 10) * (truth.pc + truth.c) - truth.c
    ]
    ds = FitDataset(points=np.array(rows), weights=np.ones(len(rows)))
    template = YieldParams(M=0.75, pc=1.0, c=0.2, m=3.0, alpha=1.2, beta=0.5, gamma=0.2).criterion()
    free = ("M", "pc", "c", "m", "alpha", "gamma", "beta")
    problem = FitProblem(template=template, free=free)
    result = fit(problem, ds, seed=3, n_starts=16)
    assert len(result.starts) == 16
    for start in result.starts:
        assert 1 <= start.evaluations <= 200
    values = dict(result.values)
    for name in free:
        assert values[name] == pytest.approx(getattr(truth, name), rel=1e-3, abs=1e-6), name


class TestGoodness:
    def test_exact_points(self):
        ds = surface_dataset(CAM_CLAY, n=15)
        rms, max_abs, per_point = goodness(CAM_CLAY.criterion(), ds)
        assert rms == pytest.approx(0.0, abs=1e-14)
        assert max_abs == pytest.approx(0.0, abs=1e-14)
        assert per_point.shape == (15,)

    def test_generator_evaluator_consistency(self):
        # powder-style row (pc not reported; unit-normalized here)
        row = YieldParams(M=1.1, pc=1.0, c=0.0, m=3.2, alpha=1.9, beta=1.0, gamma=0.0)
        ds = surface_dataset(row, n=30)
        rms, _, _ = goodness(row.criterion(), ds)
        assert rms == pytest.approx(0.0, abs=1e-14)

    def test_perturbation_increases_rms(self):
        ds = surface_dataset(CAM_CLAY, n=30)
        base, _, _ = goodness(CAM_CLAY.criterion(), ds)
        problem = FitProblem(template=CAM_CLAY.criterion(), free=("M",))
        worse, _, _ = goodness(problem.with_values({"M": 0.8}), ds)
        assert worse > base
