"""The memos of the last scalar state: ``invariants._state`` and ``criterion._values``.

``invariants``, ``yield_value``, ``gradient``, ``deviatoric_frame``,
``invariant_gradients`` and ``normalized_residual`` read the invariants of
their stress through the first.  ``yield_value`` keeps f(p) and g(theta) of
its state in the second, and ``surface_q`` at that state's p and theta
reads them.  A hit of either must give the bits of a fresh computation:
whatever state came before, in whatever form (int, tuple, list or numpy),
under whichever of two equal records, from whichever thread, and with
zeros of either sign.
"""

import importlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yieldcrit import (
    CapMeridian,
    CosineLode,
    Criterion,
    DegenerateDirection,
    DegenerateState,
    LinearMeridian,
    PowerLaw,
    deviatoric_frame,
    gradient,
    invariant_gradients,
    invariants,
    normalized_residual,
    principal_from_invariants,
    sample_biaxial,
    surface_q,
    yield_value,
)
from yieldcrit.criterion import DELTA_PHI
from test_batch import ORACLE_CRITERIA

# the modules, which the package's functions of the same names hide
inv_module = importlib.import_module("yieldcrit.invariants")
crit_module = importlib.import_module("yieldcrit.criterion")

CRITERIA = [
    *ORACLE_CRITERIA.values(),
    Criterion(meridian=LinearMeridian(Gamma=0.8, c=0.2), shape=PowerLaw(beta=0.5, n=2.0), A=0.1),
]


def _bits(x):
    """``x`` with every float as its hex form, so that -0.0 and 0.0 differ."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.tobytes()
    if isinstance(x, (tuple, list)):
        return tuple(map(_bits, x))
    if isinstance(x, Exception):
        return type(x).__name__, str(x)
    if hasattr(x, "_field_names"):  # a record
        return type(x).__name__, tuple(_bits(getattr(x, name)) for name in x._field_names)
    return x


def _call(fun, *args):
    try:
        return _bits(fun(*args))
    except (DegenerateState, DegenerateDirection) as exc:
        return _bits(exc)


OPERATIONS = {
    "invariants": lambda s, crit: _call(invariants, s),
    "yield_value": lambda s, crit: _call(yield_value, s, crit),
    "gradient": lambda s, crit: _call(gradient, s, crit),
    "deviatoric_frame": lambda s, crit: _call(deviatoric_frame, s),
    "invariant_gradients": lambda s, crit: _call(invariant_gradients, s),
    "normalized_residual": lambda s, crit: _call(normalized_residual, crit, s),
}


def _forget():
    """Empty both memos, as at import."""
    inv_module._last = ((), ())
    crit_module._values = (object(), None, None, 0.0, 0.0)


def _fresh(name, s, crit):
    """The result of one operation with nothing kept from an earlier state."""
    _forget()
    return OPERATIONS[name](s, crit)


FORMS = {
    "tuple": tuple,
    "list": list,
    "numpy": np.array,
    "ints": lambda t: tuple(int(v) for v in t),
    "int array": lambda t: np.array([int(v) for v in t]),
}

# Triples equal under == whose zeros differ in sign, and so do their invariants
# or their frame: p of (0, 0, 0) is -0.0, and S of (1, -1, 0) ends in 0.0 where
# that of (1, -1, -0.0) ends in -0.0.
SIGNED_ZEROS = [
    (0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, -0.0, 0.0),
    (1.0, -1.0, 0.0), (1.0, -1.0, -0.0), (-0.0, 1.0, -1.0),
    (-2.0, 0.0, -1.0), (-2.0, -0.0, -1.0),
]

triples = st.one_of(
    st.sampled_from(SIGNED_ZEROS),
    st.tuples(*[st.integers(-3, 3).map(float)] * 3),
    st.tuples(*[st.floats(-3.0, 3.0)] * 3),
)


@given(
    st.lists(triples, min_size=1, max_size=4),
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.sampled_from(sorted(FORMS)),
            st.integers(0, len(CRITERIA) - 1),
            st.permutations(sorted(OPERATIONS)),
        ),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=300, deadline=None)
def test_every_operation_gives_the_bits_of_a_fresh_call(pool, steps):
    # states drawn from a small pool, so that they repeat and interleave, each
    # in some form, under some criterion, through the operations in some order
    for index, form, crit_index, order in steps:
        triple = pool[index % len(pool)]
        if form.startswith("int") and not all(v == int(v) for v in triple):
            form = "list"
        s, crit = FORMS[form](triple), CRITERIA[crit_index]
        for name in order:
            got = OPERATIONS[name](s, crit)
            assert got == _fresh(name, s, crit), (name, triple, form)


@pytest.mark.parametrize("first, second", [
    ((0.0, 0.0, 0.0), (-0.0, -0.0, -0.0)),
    ((-0.0, -0.0, -0.0), (0.0, 0.0, 0.0)),
    ((1.0, -1.0, 0.0), (1.0, -1.0, -0.0)),
    ((1.0, -1.0, -0.0), (1.0, -1.0, 0.0)),
])
def test_a_zero_of_the_other_sign_is_no_hit(first, second):
    want = {name: _fresh(name, second, CRITERIA[0]) for name in OPERATIONS}
    # the fresh results differ, so a hit would show
    assert any(_fresh(name, first, CRITERIA[0]) != want[name] for name in OPERATIONS)
    for name in OPERATIONS:
        _fresh(name, first, CRITERIA[0])
        assert OPERATIONS[name](second, CRITERIA[0]) == want[name], name


def test_a_repeated_state_is_a_hit():
    s = (-0.6, -0.3, -0.1)
    invariants(s)
    kept = inv_module._last
    assert inv_module._state([-0.6, -0.3, -0.1]) is kept
    assert inv_module._state(np.array(s)) is kept
    assert inv_module._state((-0.6, -0.3, -0.2)) is not kept


def test_threads_get_the_single_thread_results():
    # Four threads (more than the cores of a small machine) each alternate
    # their own states through every operation, with the interpreter
    # switching threads as often as it can, so that each reads the memo just
    # after another has replaced it.
    rng = np.random.default_rng(11)
    states = [tuple(row) for row in rng.uniform(-2.0, 1.0, (8, 3)).tolist()]
    crit = CRITERIA[1]
    want = {s: {name: _fresh(name, s, crit) for name in OPERATIONS} for s in states}
    shares = [states[k::4] for k in range(4)]
    wrong, finished = [], []
    start = threading.Barrier(len(shares), timeout=60)

    def work(mine):
        start.wait()
        for _ in range(150):
            for s in mine:
                for name in OPERATIONS:
                    if OPERATIONS[name](s, crit) != want[s][name]:
                        wrong.append((s, name))
        finished.append(mine)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(mine,)) for mine in shares]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(finished) == len(shares)
    assert wrong == []


# ---------------------------------------------------------------------------
# The values kept by yield_value for surface_q
# ---------------------------------------------------------------------------

# a cap, and a record equal to it but distinct, which the memo tells apart
CAP = CRITERIA[1]
CAP_TWIN = Criterion(meridian=CAP.meridian, shape=CAP.shape, A=CAP.A, B=CAP.B)
# g(theta) underflows to 0 off theta = pi/3, where F is +inf and gradient raises
UNDERFLOW = Criterion(meridian=LinearMeridian(1.0, 0.5), shape=PowerLaw(beta=1000.0, n=0.001))
KEPT_CRITERIA = [CAP, CAP_TWIN, CRITERIA[0], CRITERIA[-1], UNDERFLOW]


def _cap_end_state(phi: float, theta: float):
    """A state of CAP at Phi near ``phi``, a little off the hydrostatic axis."""
    mer = CAP.meridian
    return tuple(principal_from_invariants(phi * mer.scale - mer.c, 1e-3, theta).tolist())


KEPT_STATES = [
    *SIGNED_ZEROS,
    # on the meridians: two equal principals
    (-0.2, -0.5, -0.5), (-0.5, -0.5, -0.2), (1.0, 1.0, -2.0), (-0.3, -0.3, -0.3),
    # within DELTA_PHI of either cap end, and just outside that band
    *(_cap_end_state(phi, theta) for phi in (0.5 * DELTA_PHI, 3.0 * DELTA_PHI, 1.0 - 0.5 * DELTA_PHI,
                                              1.0 - 3.0 * DELTA_PHI) for theta in (0.0, 0.4)),
    # where the power-law g underflows, and where it does not (theta = pi/3)
    (-0.5, 0.2, 0.1), (0.1, 0.1, -0.5),
]

# surface_q at the state's own p and theta, which yield_value keeps, or at zeros of either sign
SIGNED_PAIRS = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]


def _surface_q_at(s, crit):
    inv = invariants(s)
    return _call(surface_q, inv.p, inv.theta, crit)


KEPT_OPERATIONS = {
    "yield_value": lambda s, crit: _call(yield_value, s, crit),
    "surface_q": _surface_q_at,
    "gradient": lambda s, crit: _call(gradient, s, crit),
    **{f"surface_q{pair}": (lambda pair: lambda s, crit: _call(surface_q, *pair, crit))(pair)
       for pair in SIGNED_PAIRS},
}

kept_triples = st.one_of(
    st.sampled_from(KEPT_STATES),
    st.tuples(*[st.floats(-3.0, 3.0)] * 3),
)
kept_steps = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, len(KEPT_CRITERIA) - 1), st.sampled_from(sorted(KEPT_OPERATIONS))),
    min_size=1,
    max_size=16,
)


def _expected(pool, steps):
    """The fresh result of every step, each with both memos empty."""
    want = {}
    for index, crit_index, name in steps:
        key = index % len(pool), crit_index, name
        if key not in want:
            want[key] = _fresh_kept(name, pool[key[0]], KEPT_CRITERIA[crit_index])
    return want


def _fresh_kept(name, s, crit):
    _forget()
    return KEPT_OPERATIONS[name](s, crit)


def _run(pool, steps, want, wrong):
    """The steps in turn, with the memos as the steps before left them; each result that
    is not the fresh one goes to ``wrong``."""
    for index, crit_index, name in steps:
        key = index % len(pool), crit_index, name
        if KEPT_OPERATIONS[name](pool[key[0]], KEPT_CRITERIA[crit_index]) != want[key]:
            wrong.append((pool[key[0]], crit_index, name))


@given(st.lists(kept_triples, min_size=1, max_size=4), kept_steps)
@settings(max_examples=300, deadline=None)
def test_the_kept_values_give_the_bits_of_a_fresh_call(pool, steps):
    # states drawn from a small pool, so that they repeat and alternate
    want = _expected(pool, steps)
    wrong = []
    _run(pool, steps, want, wrong)
    assert wrong == []


@given(st.lists(kept_triples, min_size=1, max_size=4), kept_steps, kept_steps)
@settings(max_examples=40, deadline=None)
def test_the_kept_values_from_two_threads(pool, steps_a, steps_b):
    # each thread runs its steps over and over while the other replaces the memos
    want = {**_expected(pool, steps_a), **_expected(pool, steps_b)}
    wrong = []
    start = threading.Barrier(2, timeout=60)

    def work(steps):
        start.wait()
        for _ in range(20):
            _run(pool, steps, want, wrong)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(steps,)) for steps in (steps_a, steps_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_surface_q_reads_what_yield_value_kept():
    # planted values show which calls read the memo: only those at the kept
    # state's own p and theta objects, under the very same record
    s = (-0.6, -0.3, -0.1)
    inv = invariants(s)
    yield_value(s, CAP)
    kept = crit_module._values
    assert kept[:3] == (CAP, inv.p, inv.theta) and kept[1] is inv.p and kept[2] is inv.theta
    assert kept[3:] == (CAP.meridian.f(inv.p), CAP.shape.g(inv.theta))
    grad = _bits(gradient(s, CAP))
    crit_module._values = (CAP, inv.p, inv.theta, -1.0, 2.0)
    assert surface_q(inv.p, inv.theta, CAP) == 2.0  # -f g / B
    assert surface_q(inv.p, inv.theta, CAP_TWIN) != 2.0
    assert surface_q(inv.p + 0.0, inv.theta + 0.0, CAP) == surface_q(inv.p, inv.theta, CAP_TWIN)
    assert _bits(gradient(s, CAP)) == grad  # gradient computes its own slopes
    _forget()


@pytest.mark.parametrize("s, crit", [
    ((-0.6, -0.3, -0.1), CAP),
    ((-0.3, -0.3, -0.3), CAP),  # hydrostatic: theta is 0.0
    ((2.0, 2.1, 2.2), CAP),  # outside the cap, where f is +inf
    ((-0.5, 0.2, 0.1), UNDERFLOW),  # g underflows to 0
])
def test_yield_value_keeps_f_and_g_of_its_state(s, crit):
    _forget()
    yield_value(s, crit)
    inv = invariants(s)
    kept = crit_module._values
    assert (kept[3].hex(), kept[4].hex()) == (crit.meridian.f(inv.p).hex(), crit.shape.g(inv.theta).hex())


def test_surface_q_after_the_biaxial_search_is_a_fresh_call():
    # the biaxial search evaluates F on the diagonal and so replaces the kept
    # values; surface_q at the earlier state then misses and computes afresh
    crit = Criterion(meridian=CapMeridian(M=0.8, pc=2.0, c=0.3, m=2.0, alpha=1.0), shape=CosineLode(1.0, 0.5))
    s = (-0.6, -0.3, -0.1)
    inv = invariants(s)
    yield_value(s, crit)
    sample_biaxial(crit, 8)
    assert crit_module._values[1] is not inv.p
    assert _call(surface_q, inv.p, inv.theta, crit) == _fresh_kept("surface_q", s, crit)
