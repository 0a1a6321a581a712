"""The memo of the last scalar state in ``invariants._state``.

``invariants``, ``yield_value``, ``gradient``, ``deviatoric_frame``,
``invariant_gradients`` and ``normalized_residual`` read the invariants of
their stress through it, and a hit must give the bits of a fresh
computation: whatever state came before, in whatever form (int, tuple,
list or numpy), from whichever thread, and with zeros of either sign.
"""

import importlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yieldcrit import (
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
    yield_value,
)
from test_batch import ORACLE_CRITERIA

# the module, which the package's function of the same name hides
inv_module = importlib.import_module("yieldcrit.invariants")

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


def _fresh(name, s, crit):
    """The result of one operation with nothing kept from an earlier state."""
    inv_module._last = ((), ())
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
