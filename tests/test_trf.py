"""The lockstep fit: batched residuals, the trf port, and what a fit reports.

``FitProblem.rows`` puts one row of free-parameter values per fit start
into the criterion, and ``residual_vector`` then returns one row of
residuals per start.  Those rows are checked against the one-criterion
path bit for bit, and the batched closed-form Jacobian against
``_cap_partials`` start by start.  The solver in ``yieldcrit.trf`` ports
scipy's ``least_squares(method="trf", x_scale="jac")``; scipy, installed
for the tests only, is its oracle, start by start.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from yieldcrit import (
    CapMeridian,
    CosineLode,
    Criterion,
    FitDataset,
    FitProblem,
    GudehusArgyris,
    LinearMeridian,
    PowerLaw,
    WillamWarnke,
    YieldParams,
    cli,
    fit,
    surface_q,
)
from yieldcrit.calibration import _SearchCoordinates, _cap_partials, residual_vector
from test_acceptance import MERIDIAN_ROWS

PI3 = math.pi / 3.0
MODES = ("meridian_distance", "function_value")
CAP = ("M", "pc", "c", "m", "alpha")


@st.composite
def batched_problems(draw):
    """A template, free names, a dataset around its cap and rows of values."""
    kind = draw(st.sampled_from(["bp", "power-law", "willam-warnke", "gudehus-argyris"]))
    if kind == "bp":
        shape = CosineLode(beta=draw(st.floats(0.0, 2.0)), gamma=draw(st.floats(0.0, 0.99)))
        names = ["beta", "gamma"]
    elif kind == "power-law":
        shape = PowerLaw(beta=draw(st.floats(0.0, 2.0)), n=draw(st.floats(0.5, 10.0)))
        names = ["beta", "n"]
    elif kind == "willam-warnke":
        shape, names = WillamWarnke(e=draw(st.floats(0.51, 1.0))), ["e"]
    else:
        shape, names = GudehusArgyris(k=draw(st.floats(0.78, 1.0))), ["k"]
    if draw(st.booleans()):
        pc = draw(st.floats(0.1, 100.0))
        meridian = CapMeridian(
            M=draw(st.floats(0.2, 2.0)),
            pc=pc,
            c=draw(st.floats(0.0, 0.5)) * pc,
            m=draw(st.floats(1.1, 6.0)),
            alpha=draw(st.floats(0.05, 1.95)),
        )
        names += list(CAP)
        lo, hi = -meridian.c, meridian.pc
    else:
        meridian = LinearMeridian(Gamma=draw(st.floats(0.2, 2.0)), c=draw(st.floats(0.0, 1.0)))
        names += ["Gamma", "c"]
        lo, hi = -meridian.c, 2.0
    A = draw(st.sampled_from([0.0, 0.1, 1.0])) / (hi - lo)
    template = Criterion(meridian=meridian, shape=shape, A=A, B=draw(st.floats(0.5, 2.0)))
    free = draw(st.lists(st.sampled_from(names + ["A"]), min_size=1, max_size=5, unique=True))
    free = tuple(free)
    problem = FitProblem(template=template, free=free, residual_mode=draw(st.sampled_from(MODES)))
    span = hi - lo
    points = draw(
        st.lists(
            st.tuples(
                st.floats(lo - 0.2 * span, hi + 0.2 * span),
                st.floats(0.0, span),
                st.floats(0.0, PI3),
            ),
            min_size=1,
            max_size=12,
        )
    )
    dataset = FitDataset(points=np.array(points), weights=np.ones(len(points)))
    bounds = np.array([problem.bound_of(n) for n in free])
    row = st.lists(st.floats(0.0, 1.0), min_size=len(free), max_size=len(free))
    t = np.array(draw(st.lists(row, min_size=1, max_size=4)))
    values = bounds[:, 0] + t * (bounds[:, 1] - bounds[:, 0])
    return problem, dataset, values


@settings(max_examples=300, deadline=None)
@given(batched_problems())
def test_batched_residual_rows_equal_residual_vector(case):
    problem, dataset, values = case
    with np.errstate(all="ignore"):  # extreme draws overflow alike on both paths
        batch = np.broadcast_to(
            residual_vector(problem.rows(values), dataset, problem.residual_mode),
            (len(values), len(dataset)),
        )
        for row, v in zip(batch, values):
            one = residual_vector(
                problem.with_values(dict(zip(problem.free, v))), dataset, problem.residual_mode
            )
            assert row.tobytes() == one.tobytes()


@settings(max_examples=200, deadline=None)
@given(batched_problems(), st.data())
def test_batched_cap_jacobian_equals_cap_partials(case, data):
    problem, dataset, _ = case
    template = problem.template
    if not isinstance(template.meridian, CapMeridian):
        template = YieldParams(M=0.8, pc=1.3, c=0.2, m=2.5, alpha=0.7, beta=1.0, gamma=0.3)
        template = template.criterion()
    free = tuple(data.draw(st.lists(st.sampled_from(CAP), min_size=1, unique=True)))
    problem = FitProblem(template=template, free=free, residual_mode=problem.residual_mode)
    bounds = np.array([problem.bound_of(n) for n in free])
    t = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(free), max_size=len(free)))
    values = bounds[:, 0] + np.array([t, [0.5] * len(free)]) * (bounds[:, 1] - bounds[:, 0])
    cols = _cap_partials(problem.rows(values), dataset, problem.residual_mode, free)
    for j, v in enumerate(values):
        crit = problem.with_values(dict(zip(free, v)))
        one = _cap_partials(crit, dataset, problem.residual_mode, free)
        for name in free:
            batch = np.broadcast_to(cols[name], (len(values), len(dataset)))[j]
            assert batch.tobytes() == np.asarray(one[name], dtype=float).tobytes(), name


# ---------------------------------------------------------------------------
# scipy as the oracle
# ---------------------------------------------------------------------------


def meridian_dataset(row, n=40, theta=PI3):
    truth = YieldParams(**row)
    crit = truth.criterion()
    rows = []
    for phi in np.linspace(0.03, 0.97, n):
        p = phi * (truth.pc + truth.c) - truth.c
        rows.append((p, surface_q(p, theta, crit), theta))
    return FitDataset(points=np.array(rows), weights=np.ones(n))


def moved_problem(row, mode):
    moved = dict(row, M=2.0 * row["M"], m=2.0 * row["m"], alpha=0.5 * row["alpha"])
    return FitProblem(
        template=YieldParams(**moved).criterion(), free=("M", "m", "alpha"), residual_mode=mode
    )


def scipy_starts(problem, dataset, seed, n_starts=16):
    """(values, rms, nfev, success) of each seeded start of ``fit``, each run
    through scipy's ``least_squares(method="trf", x_scale="jac")`` from the
    same point, as fit ran them one after another before the lockstep
    solver.  The starts are drawn as fit draws them."""
    names, mode = problem.free, problem.residual_mode
    lo = np.array([problem.bound_of(n)[0] for n in names])
    hi = np.array([problem.bound_of(n)[1] for n in names])
    box = _SearchCoordinates(lo, hi)

    def crit_at(u):
        v = box.values(u[None])[0]
        return v, problem.with_values(dict(zip(names, v)))

    def resid(u):
        return residual_vector(crit_at(u)[1], dataset, mode)

    def jac(u):
        v, crit = crit_at(u)
        cols = _cap_partials(crit, dataset, mode, names)
        return np.column_stack([cols[n] for n in names]) * np.where(box.logs, v, 1.0)

    rng = np.random.default_rng(seed)
    u0 = box.ulo + (box.uhi - box.ulo) * rng.uniform(0.05, 0.95, size=(n_starts, len(names)))
    out = []
    for u in u0:
        res = least_squares(
            resid, u, jac=jac, bounds=(box.ulo, box.uhi), method="trf", x_scale="jac", max_nfev=200
        )
        rms = float(np.sqrt(np.mean(res.fun**2)))
        out.append((box.values(res.x[None])[0], rms, res.nfev, res.success))
    return out


def start_agrees(ours, ref) -> bool:
    """The start ended where scipy's did, within 1e-8 relative, or lower."""
    x = np.array([v for _, v in ours.values])
    x_ref, rms_ref = ref[0], ref[1]
    return bool(np.all(np.abs(x - x_ref) <= 1e-8 * np.abs(x_ref)) or ours.rms <= rms_ref)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("label, row", MERIDIAN_ROWS, ids=[label for label, _ in MERIDIAN_ROWS])
def test_every_start_matches_scipy_trf(label, row, mode):
    problem, dataset = moved_problem(row, mode), meridian_dataset(row)
    for seed in (0, 1):
        result = fit(problem, dataset, seed=seed)
        for j, (ours, ref) in enumerate(zip(result.starts, scipy_starts(problem, dataset, seed))):
            assert start_agrees(ours, ref), (seed, j, ours, ref[:2])


@pytest.mark.sweep
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("label, row", MERIDIAN_ROWS, ids=[label for label, _ in MERIDIAN_ROWS])
def test_sweep_against_scipy_trf(label, row, mode):
    # The 1040-fit comparison: 13 rows x 2 modes x seeds 0-39 against the
    # fit that ran scipy's trf start by start.  Run with ``pytest -m sweep``.
    problem, dataset = moved_problem(row, mode), meridian_dataset(row)
    for seed in range(40):
        result = fit(problem, dataset, seed=seed)
        values = dict(result.values)
        for name in problem.free:
            assert values[name] == pytest.approx(row[name], rel=1e-3), (seed, name)
        ref = scipy_starts(problem, dataset, seed)
        best = min(range(len(ref)), key=lambda j: (ref[j][1], j))
        x_ref, rms_ref = ref[best][:2]
        assert result.rms <= rms_ref * (1 + 1e-9) or result.rms < 1e-13, seed
        if abs(result.rms - rms_ref) <= 1e-10 + 1e-6 * rms_ref:
            x = np.array([values[n] for n in problem.free])
            assert np.all(np.abs(x - x_ref) <= 1e-8 * np.abs(x_ref)), seed


# ---------------------------------------------------------------------------
# What a fit reports about its starts
# ---------------------------------------------------------------------------

CLAY = dict(MERIDIAN_ROWS[1][1])


def noisy_clay():
    """12 clay points with 20% noise on q: a landscape in which one start of
    16 (seed 0) finds a basin none of the others reaches."""
    truth = YieldParams(**CLAY)
    crit = truth.criterion()
    rows = [
        (p, surface_q(p, th, crit), th)
        for th in (0.0, PI3)
        for p in np.linspace(0.05, 0.95, 6) * (truth.pc + truth.c) - truth.c
    ]
    points = np.array(rows)
    points[:, 1] *= 1.0 + 0.2 * np.random.default_rng(1).standard_normal(len(points))
    problem = FitProblem(template=truth.criterion(), free=("M", "c", "m", "alpha"))
    return problem, FitDataset(points=points, weights=np.ones(len(points)))


def test_records_describe_every_start():
    lead_powder = MERIDIAN_ROWS[4][1]
    problem = moved_problem(lead_powder, "meridian_distance")
    dataset = meridian_dataset(lead_powder)
    result = fit(problem, dataset, seed=5, n_starts=16)
    assert len(result.starts) == 16
    rms = np.array([s.rms for s in result.starts])
    assert result.rms == rms.min()
    assert result.n_agree == int(np.sum(np.abs(rms - result.rms) <= 1e-10 + 1e-6 * result.rms))
    assert result.n_agree >= 2 and result.converged
    for start in result.starts:
        assert [n for n, _ in start.start] == list(problem.free)
        assert [n for n, _ in start.values] == list(problem.free)
        assert start.stop in ("gtol", "ftol", "xtol", "ftol+xtol", "budget")
        # closed-form Jacobian: one evaluation per trial step, at most 200
        assert 1 <= start.evaluations <= 200


def test_lone_winning_start_is_not_converged():
    problem, dataset = noisy_clay()
    result = fit(problem, dataset, seed=0)
    assert result.convexity.admissible
    assert result.n_agree == 1
    assert result.converged is False
    # the winner is still returned
    assert result.rms == min(s.rms for s in result.starts)


def test_lone_winning_start_exits_3(tmp_path, capsys):
    problem, dataset = noisy_clay()
    data = tmp_path / "points.csv"
    rows = "".join(f"{p!r},{q!r},{t!r}\n" for p, q, t in dataset.points.tolist())
    data.write_text("p,q,theta\n" + rows, encoding="utf-8")
    spec = {"criterion": CLAY, "free": list(problem.free), "seed": 0}
    (tmp_path / "problem.json").write_text(json.dumps(spec), encoding="utf-8")
    code = cli.main(["fit", "--data", str(data), "--problem", str(tmp_path / "problem.json")])
    out, err = capsys.readouterr()
    assert code == 3
    assert "did not converge" in err
    keys = set(CLAY) | {"meridian", "A", "B", "rms", "converged", "free", "iterations"}
    assert set(json.loads(out)) == keys


def test_single_start_keeps_its_own_stop_status():
    problem, dataset = noisy_clay()
    start = fit(problem, dataset, seed=0).values
    result = fit(problem, dataset, init=dict(start))
    (record,) = result.starts
    assert result.n_agree == 1
    assert record.stop in ("gtol", "ftol", "xtol", "ftol+xtol")
    assert result.converged is True


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_start_with_nonfinite_residuals_takes_no_step():
    # g = (1 + beta (1 + cos 3t))^(-1/n) underflows at n = 1e-3, so F = q / g
    # overflows and the function_value residuals are not finite there.
    template = Criterion(
        meridian=CapMeridian(M=0.8, pc=1.0, c=0.1, m=2.0, alpha=1.0),
        shape=PowerLaw(beta=10.0, n=20.0),
    )
    rows = [(p, 0.2, th) for p in (0.2, 0.5, 0.7) for th in (0.0, 0.5, PI3)]
    dataset = FitDataset(points=np.array(rows), weights=np.ones(len(rows)))
    problem = FitProblem(template=template, free=("n",), residual_mode="function_value")
    result = fit(problem, dataset, init={"n": 1e-3})
    (record,) = result.starts
    assert (record.stop, record.evaluations, record.rms) == ("nonfinite", 1, math.inf)
    assert dict(result.values) == {"n": 1e-3}
    assert result.converged is False
