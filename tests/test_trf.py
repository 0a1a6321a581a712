"""The lockstep fit: batched residuals, the trf port, and what a fit reports.

``FitProblem.rows`` puts one row of free-parameter values per fit start
into the criterion, and ``residual_vector`` then returns one row of
residuals per start.  Those rows are checked against the one-criterion
path bit for bit, the batched closed-form Jacobian against the columns
``_model`` gives one criterion at a time, and every parameter's column against
central differences of the residuals.  The solver in ``yieldcrit.trf`` ports
scipy's ``least_squares(method="trf", x_scale="jac")``; scipy, installed
for the tests only, is its oracle, start by start.
"""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    load_dataset,
    surface_q,
)
from yieldcrit import calibration, trf
from yieldcrit.calibration import _SearchCoordinates, _columns, _model, _one_pass, residual_vector
from yieldcrit.criterion import _params
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


def columns(crit, dataset, mode, names):
    """The closed-form d(residual)/d(name) of each of ``names``, by name."""
    return _model(crit, _columns(dataset), mode, names)[1]


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
    with np.errstate(all="ignore"):  # extreme draws overflow alike on both paths
        cols = columns(problem.rows(values), dataset, problem.residual_mode, free)
    for j, v in enumerate(values):
        crit = problem.with_values(dict(zip(free, v)))
        with np.errstate(all="ignore"):
            one = columns(crit, dataset, problem.residual_mode, free)
        for name in free:
            batch = np.broadcast_to(cols[name], (len(values), len(dataset)))[j]
            assert batch.tobytes() == np.asarray(one[name], dtype=float).tobytes(), name


# ---------------------------------------------------------------------------
# The fit's one-pass model
# ---------------------------------------------------------------------------


@st.composite
def cap_problems(draw):
    """A cap template (A = 0 or not), cap-meridian free names, a dataset with
    points outside the cap and on the axis, and rows of values."""
    pc = draw(st.floats(0.1, 100.0))
    meridian = CapMeridian(
        M=draw(st.floats(0.2, 2.0)),
        pc=pc,
        c=draw(st.floats(0.0, 0.5)) * pc,
        m=draw(st.floats(1.1, 6.0)),
        alpha=draw(st.floats(0.05, 1.95)),
    )
    shape = CosineLode(beta=draw(st.floats(0.0, 2.0)), gamma=draw(st.floats(0.0, 0.99)))
    span = meridian.pc + meridian.c
    A = draw(st.sampled_from([0.0, 0.1, 1.0])) / span
    template = Criterion(meridian=meridian, shape=shape, A=A, B=draw(st.floats(0.5, 2.0)))
    free = set(draw(st.lists(st.sampled_from(CAP), min_size=1, unique=True)))
    if draw(st.booleans()):
        free |= {"pc", "c"}  # the pc-scaled floor of s0 and the penalty's Phi
    free = tuple(n for n in CAP if n in free)
    mode = draw(st.sampled_from(MODES))
    problem = FitProblem(template=template, free=free, residual_mode=mode)
    lo = -meridian.c
    drawn = draw(
        st.lists(
            st.tuples(
                st.floats(lo - 0.2 * span, lo + 1.2 * span),
                st.floats(0.0, span),
                st.floats(0.0, PI3),
            ),
            max_size=10,
        )
    )
    # beyond either end of the cap (the penalty), and near its ends with
    # q = 0, where f is small and the floor 0.01 pc sets s0
    fixed = [
        (lo - 0.1 * span, 0.1 * span, 0.3),
        (lo + 1.1 * span, 0.1 * span, 0.7),
        (lo + 1e-4 * span, 0.0, 0.0),
        (lo + (1.0 - 1e-4) * span, 0.0, PI3),
    ]
    points = np.array(fixed + drawn)
    dataset = FitDataset(points=points, weights=draw(st.sampled_from([1.0, 2.5])) * np.ones(len(points)))
    bounds = np.array([problem.bound_of(n) for n in free])
    row = st.lists(st.floats(0.0, 1.0), min_size=len(free), max_size=len(free))
    t = np.array(draw(st.lists(row, min_size=1, max_size=4)))
    return problem, dataset, bounds[:, 0] + t * (bounds[:, 1] - bounds[:, 0])


@settings(max_examples=200, deadline=None)
@given(cap_problems())
def test_one_pass_model_equals_residual_vector_and_cap_partials(case):
    problem, dataset, values = case
    free, mode = problem.free, problem.residual_mode
    with np.errstate(all="ignore"):  # extreme draws overflow alike on both paths
        r, J = _one_pass(problem, dataset, ())(values)
        assert r.shape == (len(values), len(dataset))
        assert J.shape == r.shape + (len(free),)
        for j, v in enumerate(values):
            crit = problem.with_values(dict(zip(free, v)))
            assert r[j].tobytes() == residual_vector(crit, dataset, mode).tobytes()
            cols = columns(crit, dataset, mode, free)
            stacked = np.column_stack([np.broadcast_to(cols[n], (len(dataset),)) for n in free])
            assert J[j].tobytes() == stacked.tobytes()


def test_one_pass_model_has_a_jacobian_off_the_cap():
    template = YieldParams(M=0.8, pc=1.3, c=0.2, m=2.5, alpha=0.7, beta=1.0, gamma=0.3).criterion()
    dataset = meridian_dataset(CLAY)
    for free in (("M", "gamma"), ("A",), ("beta",)):
        problem = FitProblem(template=template, free=free)
        r, J = _one_pass(problem, dataset, ())(np.array([[problem.value_of(n) for n in free]]))
        assert r.shape == (1, len(dataset))
        assert J.shape == r.shape + (len(free),) and np.all(np.isfinite(J))


# Relative distance of a draw from a branch switch of the residuals: a cap
# end, the linear apex, the linear penalty's scale or the largest two terms
# of s0 = max(B q, |f|, floor).
SWITCH_MARGIN = 1e-2


def _clear_of(a, b):
    """a and b differ by more than SWITCH_MARGIN relative to the larger."""
    return np.all(np.abs(a - b) > SWITCH_MARGIN * np.maximum(np.abs(a), np.abs(b)))


@st.composite
def every_column_problems(draw):
    """A template of any shape and meridian with every parameter it has
    free, A = 0 or not, a mode, and points inside and outside the cap or
    on both sides of the linear apex, away from the branch switches."""
    kind = draw(st.sampled_from(["bp", "power-law", "willam-warnke", "gudehus-argyris"]))
    if kind == "bp":
        shape = CosineLode(beta=draw(st.floats(0.2, 1.8)), gamma=draw(st.floats(0.0, 0.9)))
    elif kind == "power-law":
        shape = PowerLaw(beta=draw(st.floats(0.0, 1.5)), n=draw(st.floats(0.5, 8.0)))
    elif kind == "willam-warnke":
        shape = WillamWarnke(e=draw(st.floats(0.55, 1.0)))
    else:
        shape = GudehusArgyris(k=draw(st.floats(0.8, 1.0)))
    if draw(st.booleans()):
        pc = draw(st.floats(0.1, 100.0))
        meridian = CapMeridian(
            # a small M keeps |f| under the floor 0.01 pc of s0 across the cap
            M=draw(st.one_of(st.floats(0.005, 0.015), st.floats(0.2, 2.0))),
            pc=pc,
            c=draw(st.floats(0.0, 0.5)) * pc,
            m=draw(st.floats(1.1, 6.0)),
            alpha=draw(st.floats(0.05, 1.95)),
        )
        lo, hi = -meridian.c, meridian.pc
    else:
        meridian = LinearMeridian(Gamma=draw(st.floats(0.2, 2.0)), c=draw(st.floats(0.0, 3.0)))
        lo, hi = -meridian.c, 2.0
    span = hi - lo
    A = draw(st.sampled_from([0.0, 0.1, 1.0])) / span
    template = Criterion(meridian=meridian, shape=shape, A=A, B=draw(st.floats(0.5, 2.0)))
    free = (*_params(type(meridian)), *_params(type(shape)), "A")
    mode = draw(st.sampled_from(MODES))
    problem = FitProblem(template=template, free=free, residual_mode=mode)
    point = st.tuples(
        st.floats(lo - 0.2 * span, hi + 0.2 * span), st.floats(0.0, span), st.floats(0.0, PI3)
    )
    # beyond either end of the cap, or beyond the apex of the linear
    # meridian, and on the axis, where s0 is |f| or its floor
    fixed = [
        (lo - 0.1 * span, 0.1 * span, 0.3),
        (hi + 0.1 * span, 0.2 * span, 0.7),
        (lo + 0.5 * span, 0.0, 0.0),
    ]
    points = np.array(fixed + draw(st.lists(point, max_size=10)))
    ends = (lo, hi) if isinstance(meridian, CapMeridian) else (lo,)
    points = points[np.all([np.abs(points[:, 0] - e) > SWITCH_MARGIN * span for e in ends], axis=0)]
    dataset = FitDataset(points=points, weights=np.ones(len(points)))
    p, q, _ = points.T
    if isinstance(meridian, LinearMeridian):
        assume(_clear_of(meridian.c, np.mean(np.abs(p))))
    if mode == "function_value":
        f = meridian.f_array(p)
        floor, _ = meridian._s0_floor(template.B * q)
        top = np.sort(np.stack([template.B * q, np.abs(f), np.full_like(q, floor)]), axis=0)
        finite = np.isfinite(f)
        assume(_clear_of(top[2][finite], top[1][finite]))
    return problem, dataset


@settings(max_examples=200, deadline=None)
@given(every_column_problems())
def test_every_column_matches_central_differences(case):
    problem, dataset = case
    values = np.array([problem.value_of(n) for n in problem.free])
    k = len(values)
    h = 1e-5 * np.maximum(np.abs(values), 0.1)
    rows = values + np.concatenate([np.zeros((1, k)), np.diag(h), -np.diag(h)])
    r, J = _one_pass(problem, dataset, ())(rows)
    assert np.all(np.isfinite(J[0]))
    # the residuals round at about 1e-16 (1 + |r|), and the quotient divides that by h
    rounding = 1e-14 * (1.0 + np.max(np.abs(r[0]))) / h
    for j, name in enumerate(problem.free):
        column = J[0, :, j]
        difference = (r[1 + j] - r[1 + k + j]) / (2.0 * h[j])
        err = np.max(np.abs(difference - column))
        assert err <= 1e-6 * np.max(np.abs(column)) + rounding[j], (name, err, column)


@pytest.mark.parametrize("mode", MODES)
def test_closed_fit_makes_one_model_call_per_step(monkeypatch, mode):
    calls = {"model": 0, "steps": 0}

    def counted(fn, key):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(calibration, "_model", counted(calibration._model, "model"))
    monkeypatch.setattr(trf, "_subproblem", counted(trf._subproblem, "steps"))
    row = MERIDIAN_ROWS[0][1]
    result = fit(moved_problem(row, mode), meridian_dataset(row), seed=1)
    assert calls["steps"] > 0
    # the initial call at the starts, then one per lockstep step
    assert calls["model"] == calls["steps"] + 1
    assert max(s.evaluations for s in result.starts) <= calls["steps"] + 1


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
        cols = columns(crit, dataset, mode, names)
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


def power_law_case():
    """A power-law truth and 15 points on its surface; seed 0 draws starts
    down to n = 0.0017, where g = (1 + beta (1 + cos 3t))^(-1/n) underflows
    for some theta."""
    truth = Criterion(
        meridian=CapMeridian(M=0.8, pc=1.0, c=0.1, m=2.0, alpha=1.0), shape=PowerLaw(beta=0.5, n=3.0)
    )
    rows = [(p, surface_q(p, th, truth), th) for p in (0.2, 0.5, 0.7) for th in np.linspace(0, PI3, 5)]
    return truth, FitDataset(points=np.array(rows), weights=np.ones(len(rows)))


def test_start_with_a_nonfinite_jacobian_takes_no_step():
    # Where g underflows the meridian_distance residuals stay finite, but
    # d(residual)/dg divides by g^2.  Such a start takes no step, as one
    # with residuals that are not finite does, and the other starts find
    # the truth.
    truth, dataset = power_law_case()
    for mode in MODES:
        problem = FitProblem(template=truth, free=("beta", "n"), residual_mode=mode)
        result = fit(problem, dataset, seed=0)
        stuck = [s for s in result.starts if s.stop == "nonfinite"]
        assert stuck and all(s.evaluations == 1 and dict(s.start)["n"] < 0.01 for s in stuck)
        values = dict(result.values)
        assert values == pytest.approx({"beta": 0.5, "n": 3.0}, rel=1e-6), mode


def test_trial_with_a_nonfinite_jacobian_is_rejected():
    # the minimum of (x - 2)^2 lies where the model has no Jacobian, so every
    # trial that reaches past x = 1.5 is rejected and the start stops below it
    def fun(x):
        return x - 2.0, np.where(x > 1.5, np.nan, 1.0)[:, None, :]

    x0 = np.array([[0.5]])
    x, f, nfev, status = trf.solve(fun, x0, *fun(x0), np.array([0.0]), np.array([10.0]), 200)
    assert 1.4 < x[0, 0] <= 1.5 and f[0, 0] == x[0, 0] - 2.0
    assert 1 < nfev[0] < 200 and trf.STOPS[status[0]] != "budget"


def test_measure_finds_what_overflows_from_finite_residuals():
    # finite f and J whose cost, J^T f or column norms overflow
    f = np.array([[1.0, 2.0], [1e200, 0.0], [1e160, 1.0], [1.0, 1.0], [1.0, 1.0]])
    J = np.array([[[1.0], [1.0]], [[0.0], [1.0]], [[1e160], [0.0]], [[1e200], [0.0]], [[np.inf], [0.0]]])
    with np.errstate(over="ignore", invalid="ignore"):  # as in the search
        finite, g, col = trf.measure(f, J)
    assert finite.tolist() == [True, False, False, False, False]
    assert g[0].tolist() == [3.0] and col[0].tolist() == [math.sqrt(2.0)]


def test_start_whose_gradient_overflows_takes_no_step(tmp_path, capsys):
    # At q = 1.4e-192 the meridian_distance residuals divide by mean(q), so
    # they are finite but their squares and J^T f overflow at every start.
    # No start takes a step (the search met NaN in its SVD before), and the
    # command line refuses the infinite rms with one line.
    cam_clay = {"M": 0.75, "pc": 1.0, "c": 0.0, "m": 2.0, "alpha": 1.0, "beta": 1.0, "gamma": 0.0}
    data = "p,q,theta\n0.5,1.3778482211687383e-192,0.0\n"
    problem = FitProblem(template=YieldParams(**cam_clay).criterion(), free=("M",))
    result = fit(problem, load_dataset(data))
    assert {(s.stop, s.evaluations) for s in result.starts} == {("nonfinite", 1)}
    assert (result.rms, result.n_agree, result.converged) == (math.inf, 0, False)
    (tmp_path / "points.csv").write_text(data, encoding="utf-8")
    (tmp_path / "problem.json").write_text(json.dumps({"criterion": cam_clay, "free": ["M"]}), encoding="utf-8")
    args = ["fit", "--data", str(tmp_path / "points.csv"), "--problem", str(tmp_path / "problem.json")]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("yieldcrit: result is not finite") and err.count("\n") == 1


def test_fit_keeps_the_overflow_of_its_search_inside(tmp_path):
    # Starts where g underflows overflow and divide by zero; that stays
    # inside the search, so a fit under -W error ends as it does without.
    truth, dataset = power_law_case()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode in MODES:
            result = fit(FitProblem(template=truth, free=("beta", "n"), residual_mode=mode), dataset, seed=0)
            assert any(s.stop == "nonfinite" for s in result.starts), mode
    rows = "".join(f"{p!r},{q!r},{t!r}\n" for p, q, t in dataset.points.tolist())
    (tmp_path / "points.csv").write_text("p,q,theta\n" + rows, encoding="utf-8")
    spec = {"criterion": truth.to_dict(), "free": ["beta", "n"], "seed": 0}
    (tmp_path / "problem.json").write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(os.path.dirname(cli.__file__)), env.get("PYTHONPATH", "")])
    args = ["fit", "--data", str(tmp_path / "points.csv"), "--problem", str(tmp_path / "problem.json")]
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "yieldcrit.cli", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode in (0, 3), out.stderr
    assert "Traceback" not in out.stderr and "Warning" not in out.stderr
    assert json.loads(out.stdout)["free"]["n"] == pytest.approx(3.0, rel=1e-6)


def batch_cases():
    """The benchmark-style fits in both modes and the noisy clay fit, whose
    steps often take _select_step's bound branch."""
    cases = [
        pytest.param(moved_problem(row, mode), meridian_dataset(row), 1, id=f"{label}-{mode}")
        for label, row in MERIDIAN_ROWS
        for mode in MODES
    ]
    return cases + [pytest.param(*noisy_clay(), 0, id="noisy-clay")]


@pytest.mark.parametrize("problem, dataset, seed", batch_cases())
def test_each_start_ends_the_same_alone_or_in_the_batch(monkeypatch, problem, dataset, seed):
    # Every start of trf.solve runs its own arithmetic; the batch only
    # shares numpy calls.  Run a fit's 16 starts together, then each alone,
    # and compare x, f, nfev and status bit for bit.
    runs, branches = [], {"bound": 0, "rejected": 0}
    solve, select_step, termination = trf.solve, trf._select_step, trf._termination

    def recorded(*args):
        runs.append(args)
        return solve(*args)

    def counted_select(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
        branches["bound"] += int(np.sum(~np.all((x + p >= lb) & (x + p <= ub), axis=1)))
        return select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta)

    def counted_termination(reduction, *rest):
        branches["rejected"] += int(np.sum(~(reduction > 0)))
        return termination(reduction, *rest)

    monkeypatch.setattr(trf, "solve", recorded)
    monkeypatch.setattr(trf, "_select_step", counted_select)
    monkeypatch.setattr(trf, "_termination", counted_termination)
    fit(problem, dataset, seed=seed)
    monkeypatch.undo()
    # the fit took a step outside the box and rejected a trial point
    assert branches["bound"] > 0 and branches["rejected"] > 0
    ((fun, x0, f0, J0, lb, ub, max_nfev),) = runs
    batch = trf.solve(fun, x0, f0, J0, lb, ub, max_nfev)
    for j in range(len(x0)):
        alone = trf.solve(fun, x0[j : j + 1], f0[j : j + 1], J0[j : j + 1], lb, ub, max_nfev)
        for a, b in zip(alone, batch):
            assert a[0].tobytes() == b[j].tobytes(), j
