"""The biaxial ray solver: a one-batch doubling ladder, then brackets
narrowed by midpoint, chord and secant points.

The crossings are checked against ``test_batch._oracle_ray``, which doubles
and bisects one ray at a time, and the number of batched F calls against
what a batched doubling-and-bisection makes on the same rays.
"""

import math
import os
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from yieldcrit import (
    CapMeridian,
    CosineLode,
    Criterion,
    DomainError,
    EmptySlice,
    LinearMeridian,
    UnboundedDomain,
    certify,
    criterion_from_dict,
    normalized_residual,
    sample_biaxial,
    sections,
    yield_value,
    yield_value_array,
)
from test_batch import ORACLE_CRITERIA, _oracle_biaxial, _oracle_ray, criteria


def _rays(n, phase=0.0):
    phis = [2.0 * math.pi * (j + phase) / n for j in range(n)]
    return np.array([(math.cos(phi), math.sin(phi)) for phi in phis])


def _t0(crit):
    mer = crit.meridian
    return 1e-3 * (mer.pc + mer.c if isinstance(mer, CapMeridian) else mer.c + 1.0)


def _counted(monkeypatch):
    """A list that counts the batched F calls ``sections`` makes from now on."""
    calls = []
    inner = sections._slice_F

    def counting(crit, x, y):
        calls.append(len(x))
        return inner(crit, x, y)

    monkeypatch.setattr(sections, "_slice_F", counting)
    return calls


# ---------------------------------------------------------------------------
# Crossings against the one-ray-at-a-time bisection
# ---------------------------------------------------------------------------


@given(criteria(), st.integers(3, 24), st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_crossings_match_the_bisection_oracle(crit_span, n, phase):
    crit = crit_span[0]
    assume(certify(crit).admissible)
    # a cone whose slice is unbounded is refused before any ray, and only such a cone
    if sections._unbounded(crit):
        with pytest.raises(UnboundedDomain):
            sections._biaxial_center(crit)
        return
    try:
        s, _ = sections._biaxial_center(crit)
    except EmptySlice:
        return
    d, t0 = _rays(n, phase), _t0(crit)
    got = sections._ray_crossings(crit, s, s, d, t0)
    want = np.array([_oracle_ray(crit, s, s, dx, dy, t0) for dx, dy in d])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want.max())


# ---------------------------------------------------------------------------
# How many batched F calls a curve takes
# ---------------------------------------------------------------------------


def _bisection_calls(crit, cx, cy, d, t0):
    """Batched F calls of doubling from t0 and then bisecting [0, t], all
    rays together: the longest doubling, the longest bisection, one probe."""
    doubling = bisection = 0
    for dx, dy in d:

        def F(t):
            return yield_value((cx + t * dx, cy + t * dy, 0.0), crit)

        t_hi, k = t0, 1
        while not F(t_hi) > 0.0:
            t_hi, k = 2.0 * t_hi, k + 1
        t_lo, steps = 0.0, 0
        while True:
            mid = 0.5 * (t_lo + t_hi)
            if mid == t_lo or mid == t_hi:
                break
            steps += 1
            if F(mid) > 0.0:
                t_hi = mid
            else:
                t_lo = mid
        doubling, bisection = max(doubling, k), max(bisection, steps)
    return doubling + bisection + 1


def _power_law(rng):
    n = rng.uniform(1.5, 3.5)
    beta = rng.uniform(0.1, 0.8) * n / (9.0 - 2.0 * n)
    return {"deviatoric": {"kind": "power-law", "beta": beta, "n": n}}


SHAPES = {
    "bp": lambda rng: {"beta": rng.uniform(0.0, 2.0), "gamma": rng.uniform(0.0, 0.95)},
    "power-law": _power_law,
    "willam-warnke": lambda rng: {
        "deviatoric": {"kind": "willam-warnke", "e": rng.uniform(0.55, 1.0)}
    },
    "gudehus-argyris": lambda rng: {
        "deviatoric": {"kind": "gudehus-argyris", "k": rng.uniform(0.8, 1.0)}
    },
}


def _benchmark_like(rng, index):
    """A certified cap criterion of the kind the section benchmark samples:
    c > 0, the four shapes in turn and A > 0 on every other one."""
    pc = 10.0 ** rng.uniform(0.0, 2.0)
    spec = {
        "M": rng.uniform(0.5, 1.2),
        "pc": pc,
        "c": rng.uniform(0.05, 0.3) * pc,
        "m": rng.uniform(1.5, 4.0),
        "alpha": rng.uniform(0.2, 1.8),
        "A": rng.uniform(0.05, 0.5) / pc if index % 2 else 0.0,
    }
    spec.update(SHAPES[sorted(SHAPES)[index % 4]](rng))
    return criterion_from_dict(spec)


def _benchmark_like_set(count, seed=7):
    rng = np.random.default_rng(seed)
    return [_benchmark_like(rng, i) for i in range(count)]


BENCHMARK_LIKE = _benchmark_like_set(12)


@pytest.mark.parametrize("index", range(len(BENCHMARK_LIKE)))
def test_a_benchmark_curve_takes_few_F_calls(index, monkeypatch):
    crit = BENCHMARK_LIKE[index]
    s, _ = sections._biaxial_center(crit)
    d, t0 = _rays(200), _t0(crit)
    calls = _counted(monkeypatch)
    sections._ray_crossings(crit, s, s, d, t0)
    assert len(calls) <= 25
    assert len(calls) <= _bisection_calls(crit, s, s, d, t0)


@pytest.mark.parametrize("name", sorted(set(ORACLE_CRITERIA) - {"cam-clay"}))
def test_no_curve_takes_more_F_calls_than_bisection(name, monkeypatch):
    crit = ORACLE_CRITERIA[name]
    s, _ = sections._biaxial_center(crit)
    d, t0 = _rays(200), _t0(crit)
    calls = _counted(monkeypatch)
    sections._ray_crossings(crit, s, s, d, t0)
    assert len(calls) <= 25
    assert len(calls) <= _bisection_calls(crit, s, s, d, t0)


def test_a_ray_into_a_cap_apex_quarters_its_bracket(monkeypatch):
    # Cam-clay (c = 0) has a ray into the apex at the origin, where F jumps
    # from a square root to +inf.  Chord and secant roots say nothing past
    # it; quarter points narrow the bracket twice as fast as bisection.
    crit = ORACLE_CRITERIA["cam-clay"]
    s, _ = sections._biaxial_center(crit)
    d, t0 = _rays(200), _t0(crit)
    calls = _counted(monkeypatch)
    sections._ray_crossings(crit, s, s, d, t0)
    assert len(calls) <= _bisection_calls(crit, s, s, d, t0) // 2


# ---------------------------------------------------------------------------
# The doubling ladder at its edges
# ---------------------------------------------------------------------------


def _radius(crit, x, y):
    return np.hypot(x, y) - 1.0


def test_a_ray_beyond_the_ladder_doubles_one_batch_at_a_time(monkeypatch):
    monkeypatch.setattr(sections, "_slice_F", _radius)
    calls = _counted(monkeypatch)
    d = _rays(5)
    # from t0 = 1e-9 the first rung past r = 1 is 2^30 t0
    t = sections._ray_crossings(None, 0.0, 0.0, d, 1e-9)
    np.testing.assert_allclose(t, 1.0, rtol=1e-15)
    # the ladder, then rungs 16 to 30 one batch each
    assert calls[0] == 5 * sections._LADDER + 1
    assert calls[1 : 1 + 30 - sections._LADDER + 1] == [5] * (30 - sections._LADDER + 1)


def test_a_ray_beyond_the_ladder_on_a_criterion():
    crit = ORACLE_CRITERIA["concrete"]
    s, _ = sections._biaxial_center(crit)
    d, t0 = _rays(8), 1e-9 * _t0(crit)
    got = sections._ray_crossings(crit, s, s, d, t0)
    want = np.array([_oracle_ray(crit, s, s, dx, dy, t0) for dx, dy in d])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want.max())


def test_a_ray_that_never_rises_is_unbounded(monkeypatch):
    monkeypatch.setattr(sections, "_slice_F", lambda c, x, y: np.full(len(x), -1.0))
    with pytest.raises(UnboundedDomain):
        sections._ray_crossings(None, 0.0, 0.0, _rays(4), 1e-300)


def test_far_rungs_past_the_stress_limit_are_not_evaluated():
    # The crossings lie near 1e99: the rungs that find them stay below
    # STRESS_MAX = 1e100, but the ladder's last ones would pass it.
    crit = criterion_from_dict(
        {"M": 0.8, "pc": 1e99, "c": 1e98, "m": 2.0, "alpha": 1.0, "beta": 1.0, "gamma": 0.5}
    )
    assert _t0(crit) * 2.0 ** (sections._LADDER - 1) > 1e100
    got = sample_biaxial(crit, 16).samples
    want = _oracle_biaxial(crit, 16, False)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("t0", [1e98, 1e90])
def test_a_ray_that_reaches_the_stress_limit_first_raises(t0):
    # F = q - (p + 1e101) < 0 out to r = 5e100 on every ray: doubling meets
    # a stress past 1e100 before it finds F > 0, inside the ladder
    # (t0 = 1e98) or beyond it (t0 = 1e90)
    crit = Criterion(meridian=LinearMeridian(Gamma=1.0, c=1e101), shape=CosineLode(1.0, 0.0))
    with pytest.raises(DomainError, match="at most 1e\\+100"):
        sections._ray_crossings(crit, 0.0, 0.0, _rays(4), t0)


@pytest.mark.parametrize("name", sorted(ORACLE_CRITERIA))
def test_slice_F_is_yield_value_array_on_the_slice(name, rng):
    # F from the two slice columns, bit for bit as from (N, 3) stresses:
    # inside, outside and past a cap, on the diagonal and at the origin
    crit = ORACLE_CRITERIA[name]
    xy = rng.uniform(-3.0, 3.0, (200, 2)) * crit.meridian.scale
    x, y = np.append(xy[:, 0], [0.0, 1.0, -2.0]), np.append(xy[:, 1], [0.0, 1.0, -2.0])
    want = yield_value_array(np.column_stack([x, y, np.zeros_like(x)]), crit)
    assert sections._slice_F(crit, x, y).tobytes() == want.tobytes()
    for bad in (1e120, math.nan):
        with pytest.raises(DomainError) as stack_error:
            yield_value_array(np.array([[0.0, 0.0, 0.0], [bad, 1.0, 0.0]]), crit)
        with pytest.raises(DomainError) as slice_error:
            sections._slice_F(crit, np.array([0.0, bad]), np.array([0.0, 1.0]))
        assert str(slice_error.value) == str(stack_error.value)


# ---------------------------------------------------------------------------
# The full comparison against the bisection oracle
# ---------------------------------------------------------------------------


def _sweep_criteria():
    here = os.path.dirname(__file__)
    sys.path.insert(0, os.path.join(os.path.dirname(here), "perfbench"))
    try:
        import reference
    finally:
        sys.path.pop(0)
    out = {}
    for seed in range(1, 6):
        rng = reference.rng_for(seed, "sections")
        for i in range(8):
            out[f"seed{seed}-{i}"] = criterion_from_dict(reference.section_spec(rng, i))
    out["von-mises"] = ORACLE_CRITERIA["von-mises"]
    out["cam-clay"] = ORACLE_CRITERIA["cam-clay"]
    return out


@pytest.mark.sweep
def test_sweep_against_the_bisection_oracle():
    # The 40 criteria of the section benchmark for seeds 1-5, von Mises and
    # Cam-clay, at n = 200 and normalized at n = 64.  Run with
    # ``pytest -m sweep -s`` to see the summary line.
    worst, same, total, curves = 0.0, 0, 0, 0
    for name, crit in _sweep_criteria().items():
        for n, normalize in ((200, False), (64, True)):
            if normalize and not yield_value((0.0, 0.0, 0.0), crit) < 0.0:
                with pytest.raises(EmptySlice):
                    sample_biaxial(crit, n, normalize=True)
                continue
            got = sample_biaxial(crit, n, normalize=normalize).samples
            want = _oracle_biaxial(crit, n, normalize)
            gap = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
            assert gap <= 1e-12, (name, n, gap)
            if not normalize:
                assert max(normalized_residual(crit, (x, y, 0.0)) for x, y in got) <= 1e-10
            worst = max(worst, gap)
            same += int(np.sum(got == want))
            total += got.size
            curves += 1
    print(
        f"\n{curves} curves: worst gap {worst:.3g} of the curve extent, "
        f"{same} of {total} coordinates bit-identical"
    )
