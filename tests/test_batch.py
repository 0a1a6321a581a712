"""The batch (N, 3) evaluation of F and the batched biaxial ray bisection.

The array F is checked against the scalar ``yield_value`` state by state,
every formula body shared by the float and the array path is checked on
both, and ``sample_biaxial`` against a scalar bisection oracle that
resolves one ray at a time with the same bracket and stop rule.
"""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import yieldcrit
from yieldcrit import (
    CapMeridian,
    CosineLode,
    Criterion,
    DomainError,
    EmptySlice,
    GudehusArgyris,
    LinearMeridian,
    NonConvexSlice,
    OutsideCap,
    PowerLaw,
    UnboundedDomain,
    ValidationError,
    VonMises,
    WillamWarnke,
    YieldParams,
    certify,
    invariants,
    invariants_array,
    normalized_residual,
    principal_from_invariants,
    realize,
    sample_biaxial,
    sections,
    surface_q,
    surface_q_array,
    yield_value,
    yield_value_array,
)
from yieldcrit.criterion import DELTA_PHI, _surface_q_body

PI3 = math.pi / 3.0

# ---------------------------------------------------------------------------
# Array F against the scalar F
# ---------------------------------------------------------------------------

unit = st.floats(0.0, 1.0)


@st.composite
def criteria(draw):
    kind = draw(st.sampled_from(["bp", "power-law", "willam-warnke", "gudehus-argyris"]))
    if kind == "bp":
        shape = CosineLode(beta=draw(st.floats(0.0, 2.0)), gamma=draw(st.floats(0.0, 0.99)))
    elif kind == "power-law":
        shape = PowerLaw(beta=draw(st.floats(0.0, 5.0)), n=draw(st.floats(0.5, 10.0)))
    elif kind == "willam-warnke":
        shape = WillamWarnke(e=draw(st.floats(0.51, 1.0)))
    else:
        shape = GudehusArgyris(k=draw(st.floats(0.78, 1.0)))
    if draw(st.booleans()):
        pc = draw(st.floats(0.1, 100.0))
        meridian = CapMeridian(
            M=draw(st.floats(0.2, 2.0)),
            pc=pc,
            c=draw(st.floats(0.0, 0.5)) * pc,
            m=draw(st.floats(1.1, 6.0)),
            alpha=draw(st.floats(0.05, 1.95)),
        )
        span = pc + meridian.c
    else:
        meridian = LinearMeridian(Gamma=draw(st.floats(0.2, 2.0)), c=draw(st.floats(0.0, 1.0)))
        span = 1.0 + meridian.c
    A = draw(st.sampled_from([0.0, 0.0, 0.1, 1.0])) / span
    return Criterion(meridian=meridian, shape=shape, A=A, B=draw(st.floats(0.5, 2.0))), span


# One state as (p / span, q / span, theta) or a raw principal triple.
states = st.one_of(
    st.tuples(st.just("pqt"), st.floats(-0.5, 1.5), unit, st.floats(0.0, PI3)),
    st.tuples(st.just("pqt"), st.floats(-0.5, 1.5), st.just(0.0), st.just(0.0)),
    st.tuples(st.just("pqt"), st.floats(-0.5, 1.5), unit, st.sampled_from([0.0, PI3])),
    st.tuples(st.just("sig"), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)


def _stress(state, span):
    kind, a, b, c = state
    if kind == "sig":
        return np.array([a, b, c]) * span
    return principal_from_invariants(a * span, b * span, c)


@given(criteria(), st.lists(states, min_size=1, max_size=30))
@settings(max_examples=300)
def test_array_F_matches_scalar(crit_span, drawn):
    crit, span = crit_span
    sig = np.array([_stress(s, span) for s in drawn])
    F = yield_value_array(sig, crit)
    assert F.shape == (len(sig),)
    for row, F_batch in zip(sig, F):
        F_scalar = yield_value(row, crit)
        assert math.isinf(F_batch) == math.isinf(F_scalar), (row, F_batch, F_scalar)
        if math.isinf(F_scalar):
            assert F_batch == F_scalar
            continue
        # normalized by the magnitude of the competing terms
        inv = invariants(row)
        g = float(crit.shape.g(inv.theta))
        scale = crit.A * inv.q**2 + crit.B * inv.q / g + abs(crit.meridian.f(inv.p))
        assert abs(F_batch - F_scalar) <= 1e-12 * max(scale, 1e-300)


def test_array_invariants_flag_hydrostatic_states_like_the_scalar_path():
    sig = np.array([[-1.0, -1.0, -1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [2.0, 2.0, 2.0 + 1e-13]])
    p, q, theta, hydrostatic = invariants_array(sig)
    for k, row in enumerate(sig):
        inv = invariants(row)
        assert hydrostatic[k] == inv.hydrostatic
        assert p[k] == pytest.approx(inv.p, abs=1e-15)
        assert q[k] == pytest.approx(inv.q, abs=1e-15)
        # on the meridians and the axis both paths are exact
        assert theta[k] == inv.theta
    assert theta[0] == theta[3] == 0.0


@pytest.mark.parametrize("shape", [(3, 2), (6,), (2, 3, 3), ()])
def test_array_invariants_refuse_other_shapes(shape):
    with pytest.raises(DomainError):
        invariants_array(np.zeros(shape))


def test_array_invariants_take_one_triple_as_a_batch_of_one():
    p, q, theta, hydrostatic = invariants_array([1.0, 0.0, 0.0])
    inv = invariants([1.0, 0.0, 0.0])
    assert p.shape == (1,)
    assert (p[0], q[0], hydrostatic[0]) == (inv.p, inv.q, inv.hydrostatic)


def test_array_F_refuses_non_finite_stress():
    crit = YieldParams(M=1.0, pc=1.0, c=0.1, m=2.0, alpha=1.0, beta=1.0, gamma=0.0).criterion()
    with pytest.raises(DomainError):
        yield_value_array(np.array([[0.0, 0.0, 0.0], [math.nan, 0.0, 0.0]]), crit)


def test_scalar_and_array_F_refuse_overflowing_stress():
    # J2^(3/2) overflows past about 2e102, where theta and F would be NaN
    crit = YieldParams(M=1.0, pc=1.0, c=0.1, m=2.0, alpha=1.0, beta=1.0, gamma=0.0).criterion()
    with pytest.raises(DomainError, match="at most 1e\\+100"):
        yield_value((1e120, 0.0, 0.0), crit)
    with pytest.raises(DomainError, match="at most 1e\\+100"):
        yield_value_array(np.array([[0.0, 0.0, 0.0], [1e120, 0.0, 0.0]]), crit)


# ---------------------------------------------------------------------------
# One formula body for a float and for a one-row array
# ---------------------------------------------------------------------------


def _agree(x, y, scale=1.0):
    """x, from the float path, is a Python float equal to the one-row y to 1e-12."""
    assert type(x) is float, type(x)
    y = float(np.asarray(y).reshape(-1)[0])
    if math.isinf(x) or math.isinf(y):
        assert x == y
    else:
        assert abs(x - y) <= 1e-12 * max(abs(x), abs(y), scale), (x, y)


@given(criteria(), states)
@settings(max_examples=300)
def test_float_path_matches_one_row_array(crit_span, state):
    crit, span = crit_span
    sig = tuple(float(v) for v in _stress(state, span))
    row = np.array([sig])
    inv = invariants(sig)
    p, q, theta, hydrostatic = invariants_array(row)
    size = abs(inv.p) + inv.q
    _agree(inv.p, p, size)
    _agree(inv.q, q, size)
    _agree(inv.theta, theta)
    assert hydrostatic[0] == inv.hydrostatic

    f = crit.meridian.f(inv.p)
    _agree(f, crit.meridian.f(p), size)
    if not isinstance(crit.meridian, CapMeridian) or DELTA_PHI < (inv.p + crit.meridian.c) / crit.meridian.scale < 1.0 - DELTA_PHI:
        _agree(crit.meridian.df(inv.p), crit.meridian.df(p))
    for th in (inv.theta, 0.0, PI3):
        for name in ("g", "dg", "d2g"):
            body = getattr(crit.shape, name)
            _agree(body(th), body(np.array([th])))

    g = crit.shape.g(inv.theta)
    scale = crit.A * inv.q**2 + crit.B * inv.q / g + (0.0 if math.isinf(f) else abs(f))
    _agree(yield_value(sig, crit), yield_value_array(row, crit), scale)
    qs = surface_q(inv.p, inv.theta, crit)
    qs_array = _surface_q_body(crit.meridian.f(p), crit.shape.g(theta), crit, np)
    assert (qs is None) == bool(np.isnan(qs_array[0]))
    if qs is not None:
        _agree(qs, qs_array, size)


# ---------------------------------------------------------------------------
# Batched ray bisection against a scalar oracle
# ---------------------------------------------------------------------------


def _oracle_ray(crit, cx, cy, dx, dy, t0):
    """One ray at a time: double t until F > 0, then bisect [0, t]."""

    def F(t):
        return yield_value((cx + t * dx, cy + t * dy, 0.0), crit)

    t_hi = t0
    for _ in range(200):
        if F(t_hi) > 0.0:
            break
        t_hi *= 2.0
    else:
        raise AssertionError("ray never leaves the elastic range")
    t_lo = 0.0
    for _ in range(200):
        mid = 0.5 * (t_lo + t_hi)
        if mid == t_lo or mid == t_hi:
            break
        if F(mid) > 0.0:
            t_hi = mid
        else:
            t_lo = mid
    return t_lo if t_lo > 0.0 else t_hi


def _oracle_biaxial(crit, n, normalize):
    s, _ = sections._biaxial_center(crit)
    if isinstance(crit.meridian, CapMeridian):
        scale = crit.meridian.pc + crit.meridian.c
    else:
        scale = crit.meridian.c + 1.0
    pts = np.empty((n, 2))
    for j in range(n):
        phi = 2.0 * math.pi * j / n
        dx, dy = math.cos(phi), math.sin(phi)
        t = _oracle_ray(crit, s, s, dx, dy, 1e-3 * scale)
        x, y = s + t * dx, s + t * dy
        if max(abs(x), abs(y)) <= 1e-9 * scale and yield_value((0.0, 0.0, 0.0), crit) == 0.0:
            x = y = 0.0
        pts[j] = (x, y)
    if normalize:
        pts = pts / _oracle_ray(crit, 0.0, 0.0, 1.0, 0.0, 1e-3 * scale)
    return pts


ORACLE_CRITERIA = {
    "cam-clay": YieldParams(M=0.75, pc=1.0, c=0.0, m=2.0, alpha=1.0, beta=1.0, gamma=0.0).criterion(),
    "concrete": YieldParams(
        M=0.78, pc=5.7, c=0.3, m=2.0, alpha=0.1, beta=0.0, gamma=0.6
    ).criterion(),
    "rock-A": YieldParams(
        M=0.9, pc=1.3, c=0.3, m=2.2, alpha=0.9, beta=0.5, gamma=0.7
    ).criterion(A=0.2),
    "willam-warnke": Criterion(
        meridian=CapMeridian(M=1.1, pc=2.0, c=0.4, m=3.0, alpha=1.5), shape=WillamWarnke(e=0.6)
    ),
    "von-mises": realize(VonMises(ft=2.5), scale_exponent=6).criterion(),
}


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("name", sorted(ORACLE_CRITERIA))
def test_batched_crossings_match_scalar_oracle(name, normalize):
    crit = ORACLE_CRITERIA[name]
    n = 40  # one ray runs from the diagonal center into the apex at the origin
    if normalize and not yield_value((0.0, 0.0, 0.0), crit) < 0.0:
        # the origin is a cap apex: there is no tensile intercept
        with pytest.raises(EmptySlice):
            sample_biaxial(crit, n, normalize=True)
        return
    got = sample_biaxial(crit, n, normalize=normalize).samples
    want = _oracle_biaxial(crit, n, normalize)
    extent = float(np.max(np.abs(want)))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * extent)
    if not normalize:
        assert max(normalized_residual(crit, (x, y, 0.0)) for x, y in got) <= 1e-10


# ---------------------------------------------------------------------------
# The biaxial center: the in-house bounded search against scipy's
# ---------------------------------------------------------------------------


def _center_and_steps(crit, search):
    """_biaxial_center(crit) run through ``search``, with every point it tried."""
    tried = []

    def logged(fun, a, b, xatol):
        return search(lambda s: tried.append(s) or fun(s), a, b, xatol)

    saved = sections.minimize_scalar
    sections.minimize_scalar = logged
    try:
        center = tuple(v.hex() for v in sections._biaxial_center(crit))
    except (EmptySlice, UnboundedDomain) as exc:  # an unbounded cone is refused before any search
        center = type(exc).__name__
    finally:
        sections.minimize_scalar = saved
    return center, [float(s).hex() for s in tried]


def _scipy_bounded(fun, a, b, xatol):
    res = scipy.optimize.minimize_scalar(
        fun, bounds=(a, b), method="bounded", options={"xatol": xatol}
    )
    return float(res.x), float(res.fun)


def _assert_search_matches_scipy(crit):
    ours = _center_and_steps(crit, sections.minimize_scalar)
    assert ours == _center_and_steps(crit, _scipy_bounded)
    return ours[0]


@given(criteria())
@settings(max_examples=200)
def test_bounded_search_takes_scipys_steps(crit_span):
    _assert_search_matches_scipy(crit_span[0])


@pytest.mark.parametrize("name", sorted(ORACLE_CRITERIA))
def test_bounded_search_matches_scipy_on_named_criteria(name):
    assert _assert_search_matches_scipy(ORACLE_CRITERIA[name]) != "EmptySlice"


def test_bounded_search_matches_scipy_on_certified_criteria(rng):
    from conftest import random_params

    for _ in range(40):
        crit = random_params(rng).criterion()
        assert certify(crit).admissible
        _assert_search_matches_scipy(crit)


PLAIN_FUNCTIONS = {
    "constant": lambda x: 1.0,
    "rising": lambda x: x,
    "falling": lambda x: -x,
    "kink": lambda x: abs(x - 0.3),
    "centered-parabola": lambda x: x * x,
    "step": lambda x: 0.0 if x < 0.25 else 1.0,
    "wavy": lambda x: math.sin(5.0 * x) + 0.1 * x * x,
    "staircase": lambda x: float(round(4.0 * (x + 0.77))) ** 2,
    "minimum-beyond-the-bracket": lambda x: (x - 5.0) ** 2,
}


@pytest.mark.parametrize("name", sorted(PLAIN_FUNCTIONS))
@pytest.mark.parametrize(
    "bracket", [(-1.0, 1.0), (0.0, 3.0), (-2.0, 1e-3), (-2.0, 2.0), (0.0, 0.125)]
)
@pytest.mark.parametrize("xatol", [1e-9, 0.1])
def test_bounded_search_matches_scipy_on_plain_functions(name, bracket, xatol):
    fun = PLAIN_FUNCTIONS[name]
    runs = []
    for search in (sections.minimize_scalar, _scipy_bounded):
        tried = []
        x, fx = search(lambda s: tried.append(s) or fun(s), *bracket, xatol)
        runs.append((x.hex(), fx.hex(), [float(s).hex() for s in tried]))
    assert runs[0] == runs[1]


def test_bounded_search_stops_at_scipys_500_evaluations():
    # |x| with xatol = 0: the stop tolerance shrinks with |x| at the kink, so only the budget ends it
    runs = []
    for search in (sections.minimize_scalar, _scipy_bounded):
        tried = []
        x, fx = search(lambda s: tried.append(s) or abs(s), -1.0, 2.0, 0.0)
        runs.append((x.hex(), fx.hex(), [float(s).hex() for s in tried]))
    assert runs[0] == runs[1]
    assert len(runs[0][2]) == 500
    res = scipy.optimize.minimize_scalar(abs, bounds=(-1.0, 2.0), method="bounded", options={"xatol": 0.0})
    assert (res.status, res.nfev) == (1, 500)


def test_empty_slices_stay_empty():
    # F >= 0 all along the diagonal: a cone too narrow to hold (s, s, 0)
    cone = Criterion(meridian=LinearMeridian(Gamma=0.2, c=0.0), shape=CosineLode(1.0, 0.0))
    assert _assert_search_matches_scipy(cone) == "EmptySlice"
    with pytest.raises(EmptySlice):
        sample_biaxial(cone, 8)


# ---------------------------------------------------------------------------
# The one-crossing-per-ray contract
# ---------------------------------------------------------------------------


def _two_crossings(crit, x, y):
    """F = r - 1 about the origin, but positive on the band 0.55 <= r <= 0.7.

    Doubling from t0 = 1e-3 steps over the band (0.512, then 1.024) and
    bisection converges to r = 1, so only the probe sees the band.
    """
    r = np.hypot(x, y)
    return np.where((r >= 0.55) & (r <= 0.7), 1.0, r - 1.0)


# F is patched; the terms of this cone near the origin, of order 1, set the
# rounding bound that a sign change must exceed to be non-convexity
BAND_CONE = Criterion(meridian=LinearMeridian(Gamma=1.0, c=1.0), shape=CosineLode(1.0, 0.0))


def test_second_sign_change_raises_typed_error(monkeypatch):
    rays = np.array([[1.0, 0.0], [0.0, 1.0]])
    monkeypatch.setattr(sections, "_slice_F", lambda c, x, y: np.hypot(x, y) - 1.0)
    t = sections._ray_crossings(BAND_CONE, 0.0, 0.0, rays, 1e-3)
    np.testing.assert_allclose(t, 1.0, rtol=1e-15)
    monkeypatch.setattr(sections, "_slice_F", _two_crossings)
    with pytest.raises(NonConvexSlice, match="more than once"):
        sections._ray_crossings(BAND_CONE, 0.0, 0.0, rays, 1e-3)


def test_second_sign_change_raises_under_optimize_flag():
    script = (
        "import numpy as np\n"
        "from yieldcrit import NonConvexSlice, sections\n"
        "from test_batch import BAND_CONE, _two_crossings\n"
        "sections._slice_F = _two_crossings\n"
        "try:\n"
        "    sections._ray_crossings(BAND_CONE, 0.0, 0.0, np.array([[1.0, 0.0]]), 1e-3)\n"
        "except NonConvexSlice:\n"
        "    print('raised', __debug__)\n"
    )
    env = dict(os.environ)
    paths = [os.path.dirname(os.path.dirname(yieldcrit.__file__)), os.path.dirname(__file__)]
    env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised False"


# ---------------------------------------------------------------------------
# The surface radius in one batch, and the samplers built on it
# ---------------------------------------------------------------------------


def _fractions_to_p(crit, span, xs):
    """Pressures -c + x span: x < 0 lies beyond the tension apex, x > 1 past a cap."""
    c = crit.meridian.c
    return [-c + x * span for x in xs]


@given(
    criteria(),
    st.lists(
        st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0, -1e-9, 1.0 + 1e-9])),
        min_size=1,
        max_size=20,
    ),
    st.lists(st.one_of(st.floats(0.0, PI3), st.sampled_from([0.0, PI3])), min_size=1, max_size=5),
)
@settings(max_examples=300)
def test_array_surface_radius_matches_scalar(crit_span, xs, thetas):
    crit, span = crit_span
    ps = np.array(_fractions_to_p(crit, span, xs))
    if isinstance(crit.meridian, CapMeridian):
        ps = np.append(ps, [-crit.meridian.c, crit.meridian.pc])
    ths = np.array(thetas)
    # a column of pressures against a row of angles, and each of them alone
    grid = surface_q_array(ps[:, None], ths[None, :], crit)
    assert grid.shape == (len(ps), len(ths))
    for j, th in enumerate(thetas):
        np.testing.assert_array_equal(surface_q_array(ps, th, crit), grid[:, j])
    for i, p in enumerate(ps):
        np.testing.assert_array_equal(surface_q_array(p, ths, crit), grid[i])
        for j, th in enumerate(thetas):
            want = surface_q(float(p), th, crit)
            got = grid[i, j]
            assert (want is None) == bool(np.isnan(got)), (p, th, want, got)
            if want is not None:
                assert abs(got - want) <= 1e-12 * max(abs(want), span), (p, th, want, got)


def test_array_surface_radius_refuses_what_the_scalar_refuses():
    crit = ORACLE_CRITERIA["rock-A"]
    for theta in (math.nan, -0.1, PI3 + 1e-9, [0.0, math.nan]):
        with pytest.raises(DomainError, match="theta"):
            surface_q_array(0.5, theta, crit)
    with pytest.raises(DomainError, match="theta"):
        surface_q(0.5, math.nan, crit)
    for p in (math.nan, [0.5, math.nan]):
        with pytest.raises(DomainError, match="p must be a number"):
            surface_q_array(p, 0.3, crit)
    with pytest.raises(DomainError, match="p must be a number"):
        surface_q(math.nan, 0.3, crit)
    with pytest.raises(DomainError, match="broadcast"):
        surface_q_array(np.zeros(3), np.zeros(2), crit)


def _oracle_meridian(crit, theta, n, p_range=None):
    """q(p) one scalar ``surface_q`` call at a time; NaN where it returns None."""
    if p_range is None:
        p_range = (-crit.meridian.c, crit.meridian.pc)
    ps = np.linspace(p_range[0], p_range[1], n)
    qs = [surface_q(float(p), theta, crit) for p in ps]
    return np.column_stack([ps, [math.nan if q is None else q for q in qs]])


def _oracle_six_fold(thetas, radii):
    """The closed deviatoric curve, built sector by sector into lists."""
    xs, ys = [], []
    for sector in range(6):
        base = sector * PI3
        if sector % 2 == 0:
            phis, rr = base + thetas, radii
        else:
            phis, rr = base + (PI3 - thetas[::-1]), radii[::-1]
        start = 1 if sector > 0 else 0
        xs.extend(rr[start:] * np.cos(phis[start:]))
        ys.extend(rr[start:] * np.sin(phis[start:]))
    return np.column_stack([xs[:-1], ys[:-1]])


def _oracle_deviatoric(crit, at_p, n, normalize=False):
    """r(theta) one scalar ``surface_q`` call at a time, expanded sector by sector."""
    thetas = np.linspace(0.0, PI3, n)
    radii = np.array([surface_q(at_p, float(t), crit) for t in thetas])
    if normalize:
        radii = radii / radii[-1]
    return _oracle_six_fold(thetas, radii)


def _curve_gap(got, want):
    """Largest coordinate gap over the curve extent; NaN must sit in the same places."""
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    extent = float(np.max(np.abs(want[ok]), initial=0.0))
    gap = float(np.max(np.abs(got[ok] - want[ok]), initial=0.0))
    return gap / extent if extent > 0.0 else gap


@given(criteria(), st.floats(0.0, PI3), st.integers(2, 40))
@settings(max_examples=150)
def test_meridian_matches_scalar_loop(crit_span, theta, n):
    crit, span = crit_span
    if isinstance(crit.meridian, CapMeridian):
        p_range = None
    else:
        # from beyond the apex to well inside the cone
        p_range = tuple(_fractions_to_p(crit, span, (-0.5, 1.5)))
    got = sections.sample_meridian(crit, theta, n, p_range=p_range).samples
    assert _curve_gap(got, _oracle_meridian(crit, theta, n, p_range)) <= 1e-12


@given(criteria(), st.floats(0.01, 0.99), st.integers(2, 40), st.booleans())
@settings(max_examples=150)
def test_deviatoric_matches_scalar_loop(crit_span, x, n, normalize):
    crit, span = crit_span
    at_p = _fractions_to_p(crit, span, (x,))[0]
    got = sections.sample_deviatoric(crit, at_p, n, normalize=normalize).samples
    want = _oracle_deviatoric(crit, at_p, n, normalize)
    assert got.shape == (6 * (n - 1), 2)
    assert _curve_gap(got, want) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 17, 200])
def test_six_fold_expansion_is_the_sector_loop_bit_for_bit(n, rng):
    thetas = np.linspace(0.0, PI3, n)
    radii = rng.uniform(0.5, 2.0, n)
    np.testing.assert_array_equal(sections._six_fold(radii), _oracle_six_fold(thetas, radii))


def test_sampler_errors_stay_typed():
    cap = ORACLE_CRITERIA["rock-A"]
    cone = Criterion(meridian=LinearMeridian(Gamma=1.0, c=0.5), shape=CosineLode(1.0, 0.5))
    with pytest.raises(DomainError):
        sections.sample_meridian(cap, math.nan, 10)
    with warnings.catch_warnings():
        # the ends are refused before numpy can warn about them
        warnings.simplefilter("error")
        for p_range in ((0.0, math.inf), (math.nan, 1.0), (-math.inf, 0.0)):
            with pytest.raises(ValidationError, match="finite"):
                sections.sample_meridian(cone, 0.0, 10, p_range=p_range)
    with pytest.raises(EmptySlice):
        sections.sample_deviatoric(cone, -1.0, 10)
    with pytest.raises(DomainError, match="apex"):
        sections.sample_deviatoric(cone, -0.5, 10, normalize=True)
    with pytest.raises(OutsideCap):
        sections.sample_deviatoric(cap, 2.0, 10)
    with pytest.raises(ValidationError, match="at_p must be finite"):
        sections.sample_deviatoric(cone, math.nan, 10)


def _perfbench_section_cases(seeds):
    """The section benchmark's criteria with its theta and at_p, seed by seed."""
    here = os.path.dirname(__file__)
    sys.path.insert(0, os.path.join(os.path.dirname(here), "perfbench"))
    try:
        import reference
    finally:
        sys.path.pop(0)
    for seed in seeds:
        rng = reference.rng_for(seed, "sections")
        specs = [reference.section_spec(rng, i) for i in range(8)]
        for spec in specs:
            theta = float(rng.uniform(0.0, reference.PI3))
            at_p = float(rng.uniform(0.2, 0.8)) * (spec["pc"] + spec["c"]) - spec["c"]
            yield yieldcrit.criterion_from_dict(spec), theta, at_p


@pytest.mark.sweep
def test_sweep_sections_against_the_scalar_loop():
    # 80 meridian and 80 deviatoric curves at n = 200: the criteria of the
    # section benchmark for seeds 1-10.  ``pytest -m sweep -s`` prints the
    # summary lines.
    stats = {"meridian": [0, 0, 0.0], "deviatoric": [0, 0, 0.0]}
    for crit, theta, at_p in _perfbench_section_cases(range(1, 11)):
        for kind, got, want in (
            ("meridian", sections.sample_meridian(crit, theta, 200), _oracle_meridian(crit, theta, 200)),
            ("deviatoric", sections.sample_deviatoric(crit, at_p, 200), _oracle_deviatoric(crit, at_p, 200)),
        ):
            gap = _curve_gap(got.samples, want)
            assert gap <= 1e-12, (kind, gap)
            s = stats[kind]
            s[0] += int(np.sum((got.samples == want) | (np.isnan(got.samples) & np.isnan(want))))
            s[1] += want.size
            s[2] = max(s[2], gap)
    for kind, (same, total, worst) in stats.items():
        print(
            f"\n80 {kind} curves: worst gap {worst:.3g} of the curve extent, "
            f"{same} of {total} coordinates bit-identical"
        )
