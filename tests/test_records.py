"""The parameter records: serializer round trips and validation messages.

Each record (the two meridians, the four deviatoric shapes, Criterion and
YieldParams) checks its own fields; these tests pin the exact error type
and message of every check and that every serializer reads back to an
equal record.
"""

import dataclasses
import math

import pytest

from yieldcrit import (
    CapMeridian,
    CosineLode,
    Criterion,
    GradientDecomposition,
    GudehusArgyris,
    Invariants,
    LinearMeridian,
    PowerLaw,
    ValidationError,
    WillamWarnke,
    YieldParams,
    criterion_from_dict,
    gradient,
    invariants,
)
from yieldcrit.criterion import shape_from_dict

SHAPES = [
    CosineLode(beta=0.4, gamma=0.7),
    PowerLaw(beta=0.5, n=3.0),
    WillamWarnke(e=0.66),
    GudehusArgyris(k=0.92),
]
MERIDIANS = [
    CapMeridian(M=1.1, pc=2.0, c=0.3, m=2.4, alpha=0.8),
    LinearMeridian(Gamma=1.2, c=0.3),
]
NATIVE = dict(M=1.0, pc=1.0, c=0.1, m=2.0, alpha=1.0, beta=1.0, gamma=0.0)
CONE, CIRCLE = LinearMeridian(1.0, 0.0), CosineLode(1.0, 0.0)


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.kind)
def test_shape_round_trip(shape):
    d = shape.to_dict()
    assert d["kind"] == shape.kind
    assert shape_from_dict(d) == shape


def test_yield_params_round_trip():
    p = YieldParams(M=0.9, pc=1.7, c=0.2, m=2.5, alpha=0.6, beta=0.8, gamma=0.4)
    d = p.to_dict()
    assert list(d) == ["M", "pc", "c", "m", "alpha", "beta", "gamma"]
    assert YieldParams(**d) == p


@pytest.mark.parametrize("A", [0.0, 0.25])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.kind)
@pytest.mark.parametrize("meridian", MERIDIANS, ids=["cap", "linear"])
def test_criterion_round_trip(meridian, shape, A):
    crit = Criterion(meridian=meridian, shape=shape, A=A, B=1.5)
    d = crit.to_dict()
    assert d["meridian"] == ("bp" if isinstance(meridian, CapMeridian) else "linear")
    assert criterion_from_dict(d) == crit


def test_criterion_dict_layout():
    # key order is part of the CLI's output bytes
    crit = Criterion(meridian=MERIDIANS[0], shape=SHAPES[0], A=0.25, B=1.5)
    assert list(crit.to_dict()) == [
        "meridian", "M", "pc", "c", "m", "alpha", "beta", "gamma", "A", "B"
    ]
    crit = Criterion(meridian=MERIDIANS[1], shape=SHAPES[1])
    assert crit.to_dict() == {
        "meridian": "linear",
        "Gamma": 1.2,
        "c": 0.3,
        "deviatoric": {"kind": "power-law", "beta": 0.5, "n": 3.0},
        "A": 0.0,
        "B": 1.0,
    }
    assert list(crit.to_dict()) == ["meridian", "Gamma", "c", "deviatoric", "A", "B"]


# ---------------------------------------------------------------------------
# Range checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PowerLaw(beta=-1.0, n=2.0), "beta must be nonnegative, got -1.0"),
        (lambda: PowerLaw(beta=0.5, n=0.0), "n must be positive, got 0.0"),
        (lambda: WillamWarnke(e=0.5), "e must lie in (0.5, 1], got 0.5"),
        (lambda: WillamWarnke(e=1.5), "e must lie in (0.5, 1], got 1.5"),
        (lambda: GudehusArgyris(k=0.7), "k must lie in (0.777, 1], got 0.7"),
        (lambda: GudehusArgyris(k=1.1), "k must lie in (0.777, 1], got 1.1"),
        (lambda: LinearMeridian(Gamma=0.0, c=0.0), "Gamma must be positive, got 0.0"),
        (lambda: LinearMeridian(Gamma=1.0, c=-1.0), "c must be nonnegative, got -1.0"),
        (lambda: Criterion(CONE, CIRCLE, A=-1.0), "A must be nonnegative, got -1.0"),
        (lambda: Criterion(CONE, CIRCLE, B=0.0), "B must be positive, got 0.0"),
        (lambda: CosineLode(beta=1.0, gamma=1.0), "gamma must lie in [0, 1), got 1.0"),
        (lambda: CapMeridian(0.0, 1.0, 0.0, 2.0, 1.0), "M must be positive, got 0.0"),
        (lambda: CapMeridian(1.0, 0.0, 0.0, 2.0, 1.0), "pc must be positive, got 0.0"),
        (lambda: CapMeridian(1.0, 1.0, -1.0, 2.0, 1.0), "c must be nonnegative, got -1.0"),
        (lambda: CapMeridian(1.0, 1.0, 0.0, 1.0, 1.0), "m must exceed 1, got 1.0"),
        (lambda: CapMeridian(1.0, 1.0, 0.0, 2.0, 2.0), "alpha must lie in (0, 2), got 2.0"),
    ],
)
def test_range_messages(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


# One constructor per record, taking a dict of its fields.
RECORDS = {
    "CapMeridian": (CapMeridian, dict(M=1.0, pc=1.0, c=0.1, m=2.0, alpha=1.0)),
    "LinearMeridian": (LinearMeridian, dict(Gamma=1.0, c=0.0)),
    "CosineLode": (CosineLode, dict(beta=1.0, gamma=0.0)),
    "PowerLaw": (PowerLaw, dict(beta=0.5, n=2.0)),
    "WillamWarnke": (WillamWarnke, dict(e=0.8)),
    "GudehusArgyris": (GudehusArgyris, dict(k=0.9)),
    "Criterion": (lambda **kw: Criterion(CONE, CIRCLE, **kw), dict(A=0.0, B=1.0)),
    "YieldParams": (YieldParams, NATIVE),
}
NON_FINITE_CASES = [
    (record, name, bad)
    for record, (_, good) in RECORDS.items()
    for name in good
    for bad in (math.nan, math.inf, -math.inf)
]


@pytest.mark.parametrize("record, name, bad", NON_FINITE_CASES)
def test_non_finite_field_messages(record, name, bad):
    build, good = RECORDS[record]
    with pytest.raises(ValidationError) as info:
        build(**dict(good, **{name: bad}))
    assert str(info.value) == f"{name} must be finite, got {bad}"


# ---------------------------------------------------------------------------
# Dict forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "d, message",
    [
        ({"beta": 1.0}, "deviatoric shape needs a 'kind' key, got {'beta': 1.0}"),
        ([1.0], "deviatoric shape needs a 'kind' key, got [1.0]"),
        ({"kind": "rankine"}, "unknown deviatoric kind 'rankine'"),
        (
            {"kind": "bp", "beta": 1.0, "gamma": 0.0, "x": 2.0},
            "bad parameters for deviatoric kind 'bp': "
            "CosineLode.__init__() got an unexpected keyword argument 'x'",
        ),
        (
            {"kind": "power-law", "beta": 1.0},
            "bad parameters for deviatoric kind 'power-law': "
            "PowerLaw.__init__() missing 1 required positional argument: 'n'",
        ),
        ({"kind": "willam-warnke", "e": 0.2}, "e must lie in (0.5, 1], got 0.2"),
        ({"kind": "willam-warnke", "e": True}, "e must be a number, got True"),
        ({"kind": "power-law", "beta": 1.0, "n": "3"}, "n must be a number, got '3'"),
    ],
)
def test_shape_from_dict_messages(d, message):
    with pytest.raises(ValidationError) as info:
        shape_from_dict(d)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "d, message",
    [
        ([1.0], "parameter JSON must be an object, got list"),
        ("M=1", "parameter JSON must be an object, got str"),
        ({"meridian": "cone"}, "unknown meridian kind 'cone'"),
        ({k: v for k, v in NATIVE.items() if k != "gamma"},
         "missing parameter 'gamma' for deviatoric shape"),
        ({"meridian": "linear", "Gamma": 1.0, "beta": 1.0},
         "missing parameter 'gamma' for deviatoric shape"),
        ({k: v for k, v in NATIVE.items() if k != "pc"}, "missing parameter 'pc' for meridian 'bp'"),
        ({"meridian": "linear", "c": 1.0, "beta": 1.0, "gamma": 0.0},
         "missing parameter 'Gamma' for meridian 'linear'"),
        (dict(NATIVE, beta=3.0, gamma=0.5),
         "beta=3.0 outside the convex interval for gamma=0.5"),
        (dict(NATIVE, M=True), "M must be a number, got True"),
        (dict(NATIVE, pc="12.5"), "pc must be a number, got '12.5'"),
        (dict(NATIVE, A=None), "A must be a number, got None"),
        ({"meridian": "linear", "Gamma": 1.0, "c": "0", "beta": 1.0, "gamma": 0.0},
         "c must be a number, got '0'"),
    ],
)
def test_criterion_from_dict_messages(d, message):
    with pytest.raises(ValidationError) as info:
        criterion_from_dict(d)
    assert str(info.value) == message


def test_integer_parameters_are_numbers():
    crit = criterion_from_dict({"M": 1, "pc": 2, "c": 0, "m": 2, "alpha": 1, "beta": 1, "gamma": 0})
    assert crit.meridian == CapMeridian(M=1.0, pc=2.0, c=0.0, m=2.0, alpha=1.0)
    assert all(type(v) is float for v in crit.to_dict().values() if not isinstance(v, str))


def test_an_integer_too_large_for_a_float_names_its_key():
    with pytest.raises(ValidationError) as info:
        criterion_from_dict(dict(NATIVE, M=10**400))
    assert str(info.value) == "M must be finite, got an integer too large for a float"


# ---------------------------------------------------------------------------
# Records built without __init__
# ---------------------------------------------------------------------------


def _fast_and_constructed():
    """(a record built without ``__init__``, the same record built by its class)."""
    stress = (-0.7, -0.2, -0.4)
    crit = YieldParams(**NATIVE).criterion()
    dec = gradient(stress, crit)
    fields = {f.name: getattr(dec, f.name) for f in dataclasses.fields(dec)}
    inv = invariants(stress)
    return [
        (inv, Invariants(inv.p, inv.q, inv.theta, inv.hydrostatic)),
        (dec, GradientDecomposition(**fields)),
        (YieldParams.unchecked(**NATIVE), YieldParams(**{k: float(v) for k, v in NATIVE.items()})),
    ]


@pytest.mark.parametrize("pair", range(3), ids=["Invariants", "GradientDecomposition", "YieldParams"])
def test_records_built_without_init_behave_as_constructed(pair):
    fast, made = _fast_and_constructed()[pair]
    assert type(fast) is type(made)
    assert repr(fast) == repr(made)
    assert fast == made
    if isinstance(fast, GradientDecomposition):
        # its ndarray fields make it unhashable, however it is built
        for record in (fast, made):
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
    else:
        assert hash(fast) == hash(made)
    name = dataclasses.fields(fast)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(fast, name, 1.0)
    assert repr(dataclasses.replace(fast, **{name: 2.0})) == repr(dataclasses.replace(made, **{name: 2.0}))
    assert repr(dataclasses.asdict(fast)) == repr(dataclasses.asdict(made))
