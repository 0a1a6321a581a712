"""The records: serializer round trips, validation messages and dataclass behaviour.

Each parameter record (the two meridians, the four deviatoric shapes,
Criterion and YieldParams) checks its own fields; these tests pin the exact
error type and message of every check and that every serializer reads back
to an equal record.  Every record class of the package shares the methods
of ``invariants.Record``; each is checked against a frozen dataclass with
the same fields, made by ``dataclasses`` at test time, as the oracle: repr,
equality, hashing, the frozen errors, replace, asdict, the signature,
``__match_args__``, a pickle round trip and the TypeError of each call that
does not bind.
"""

import copy
import dataclasses
import functools
import inspect
import math
import pickle

import numpy as np
import pytest

from yieldcrit import (
    CapMeridian,
    CosineLode,
    Criterion,
    FitStart,
    GradientDecomposition,
    GudehusArgyris,
    Invariants,
    LinearMeridian,
    PowerLaw,
    ValidationError,
    WillamWarnke,
    YieldParams,
    certify,
    criterion_from_dict,
    gradient,
    invariants,
)
from yieldcrit.criterion import shape_from_dict
from yieldcrit.invariants import Record, _record

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
# Every record against a frozen dataclass
# ---------------------------------------------------------------------------


def _record_classes() -> list:
    """Every record class of the package, the limits and array modules included."""
    import yieldcrit.calibration, yieldcrit.limits, yieldcrit.sections  # noqa: E401, F401

    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("yieldcrit."):
                found.add(sub)
    return sorted(found, key=lambda cls: cls.__qualname__)


def _samples() -> dict:
    """Valid field values of every record class, by class name; fresh arrays each call."""
    crit = Criterion(MERIDIANS[0], SHAPES[0], A=0.25, B=1.5)
    fit_start = dict(start=(("M", 0.5),), values=(("M", 0.6),), rms=0.1, evaluations=3, stop="gtol")
    report = certify(crit)
    return {
        "Invariants": dict(p=0.1, q=0.2, theta=0.3, hydrostatic=False),
        "DeviatoricFrame": dict(s_tilde=np.array([0.8, -0.4, -0.4]), s_tilde_perp=np.zeros(3), defined=False),
        "CapMeridian": dict(M=1.1, pc=2.0, c=0.3, m=2.4, alpha=0.8),
        "LinearMeridian": dict(Gamma=1.2, c=0.3),
        "CosineLode": dict(beta=0.4, gamma=0.7),
        "PowerLaw": dict(beta=0.5, n=3.0),
        "WillamWarnke": dict(e=0.66),
        "GudehusArgyris": dict(k=0.92),
        "YieldParams": dict(NATIVE),
        "Criterion": dict(meridian=crit.meridian, shape=crit.shape, A=0.25, B=1.5),
        "GradientDecomposition": dict(a=0.1, b=0.2, c=0.0, tensor=np.ones(3), unit_normal=np.ones(3) / 3**0.5),
        "ConvexityReport": {f.name: getattr(report, f.name) for f in dataclasses.fields(report)},
        "_TensileStrength": dict(ft=2.0),
        "VonMises": dict(ft=2.0),
        "Tresca": dict(ft=2.0),
        "_StrengthRatio": dict(fc=2.0, r=3.0),
        "DruckerPrager": dict(fc=2.0, r=3.0),
        "ModifiedTresca": dict(fc=2.0, r=3.0),
        "CoulombMohr": dict(fc=2.0, r=3.0),
        "ModifiedCamClay": dict(M=0.75, pc=1.0),
        "LimitRealization": dict(params=YieldParams(**NATIVE), scale_exponent=6, warnings=("w",)),
        "SectionCurve": dict(kind="meridian", samples=np.zeros((2, 2)), xlabel="p", ylabel="q",
                             params_echo=(("M", 1.0),)),
        "FitDataset": dict(points=np.array([[0.2, 0.45, 0.0]]), weights=np.ones(1)),
        "FitProblem": dict(template=crit, free=("M",), bounds=(), residual_mode="meridian_distance"),
        "FitStart": fit_start,
        "FitResult": dict(criterion=crit, values=(("M", 0.6),), rms=0.1, iterations=3, converged=True,
                          convexity=report, n_agree=2, starts=(FitStart(**fit_start),)),
    }


RECORD_CLASSES = _record_classes()
CLASS_IDS = [cls.__qualname__ for cls in RECORD_CLASSES]


@functools.cache
def _twin(cls):
    """The frozen dataclass with the fields of ``cls``, made by ``dataclasses`` here."""
    specs = [
        (f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def _outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return "returns", call()
    except Exception as exc:  # the twin's exception is the oracle
        return type(exc), str(exc)


def _pair(cls):
    """(a record of ``cls`` built from its sample, its twin built from the same field values)."""
    record = cls(**_samples()[cls.__qualname__])
    return record, _twin(cls)(**{f.name: getattr(record, f.name) for f in dataclasses.fields(cls)})


def test_every_record_class_has_a_sample():
    assert set(CLASS_IDS) == set(_samples())


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=CLASS_IDS)
def test_a_record_behaves_as_its_frozen_dataclass_twin(cls):
    record, twin = _pair(cls)
    again, twin_again = _pair(cls)
    assert dataclasses.is_dataclass(record)
    assert repr(record) == repr(twin)
    assert inspect.signature(cls) == inspect.signature(type(twin))
    assert cls.__match_args__ == type(twin).__match_args__
    assert (record == record, record != 1.0) == (twin == twin, twin != 1.0)
    assert _outcome(lambda: record == again) == _outcome(lambda: twin == twin_again)
    # one field changed, without the checks: an unequal record, or an ndarray compared
    name = dataclasses.fields(cls)[-1].name
    other = _record(cls, {**record.__dict__, name: "other"})
    twin_other = copy.copy(twin)
    object.__setattr__(twin_other, name, "other")
    assert _outcome(lambda: record == other) == _outcome(lambda: twin == twin_other)
    hashed = _outcome(lambda: hash(record))
    assert hashed == _outcome(lambda: hash(twin))  # TypeError for an ndarray field
    assert (hashed[0] is TypeError) == any("ndarray" in f.type for f in dataclasses.fields(cls))
    for target in (name, "not_a_field"):
        set_field = _outcome(lambda: setattr(record, target, 1.0))
        assert set_field[0] is dataclasses.FrozenInstanceError
        assert set_field == _outcome(lambda: setattr(twin, target, 1.0))
        del_field = _outcome(lambda: delattr(record, target))
        assert del_field[0] is dataclasses.FrozenInstanceError
        assert del_field == _outcome(lambda: delattr(twin, target))
    first = dataclasses.fields(cls)[0].name
    value = getattr(record, first)
    assert repr(dataclasses.replace(record, **{first: value})) == repr(dataclasses.replace(twin, **{first: value}))
    assert repr(dataclasses.asdict(record)) == repr(dataclasses.asdict(twin))
    loaded = pickle.loads(pickle.dumps(record))
    assert type(loaded) is cls and repr(loaded) == repr(twin)


def _bad_calls(cls):
    """(label, args, kwargs) of calls that do not bind, each as a frozen dataclass words it."""
    sample = _samples()[cls.__qualname__]
    names = [f.name for f in dataclasses.fields(cls)]
    required = [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
    values = [sample[n] for n in names]
    calls = [
        ("one missing", (), {n: sample[n] for n in names if n != required[-1]}),
        ("all missing", (), {}),
        ("unexpected keyword", (), {**sample, "extra": 1.0}),
        ("too many positional", (*values, 1.0), {}),
        ("repeated", tuple(values[:1]), {names[0]: values[0]}),
        ("positional then repeated, past the fields", (*values, 1.0), {names[-1]: values[-1]}),
    ]
    if len(required) > 1:
        calls.append(("two missing", (), {n: sample[n] for n in names if n not in required[-2:]}))
    return calls


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=CLASS_IDS)
def test_a_call_that_does_not_bind_raises_the_dataclass_type_error(cls):
    twin = _twin(cls)
    for label, args, kwargs in _bad_calls(cls):
        raised = _outcome(lambda: cls(*args, **kwargs))
        assert raised[0] is TypeError and raised[1].startswith(f"{cls.__qualname__}.__init__() "), label
        assert raised == _outcome(lambda: twin(*args, **kwargs)), label


# ---------------------------------------------------------------------------
# Records built without __init__
# ---------------------------------------------------------------------------


def _fast_and_constructed(cls):
    """(a record built without ``__init__``, the same record built by its class): by
    the library's own fast paths where it has one, else by ``_record``."""
    stress = (-0.7, -0.2, -0.4)
    if cls is Invariants:
        inv = invariants(stress)
        return inv, Invariants(inv.p, inv.q, inv.theta, inv.hydrostatic)
    if cls is GradientDecomposition:
        dec = gradient(stress, YieldParams(**NATIVE).criterion())
        return dec, GradientDecomposition(**{f.name: getattr(dec, f.name) for f in dataclasses.fields(dec)})
    if cls is YieldParams:
        return YieldParams.unchecked(**NATIVE), YieldParams(**{k: float(v) for k, v in NATIVE.items()})
    made = cls(**_samples()[cls.__qualname__])
    return _record(cls, {f.name: getattr(made, f.name) for f in dataclasses.fields(cls)}), made


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=CLASS_IDS)
def test_records_built_without_init_behave_as_constructed(cls):
    fast, made = _fast_and_constructed(cls)
    assert type(fast) is type(made)
    assert repr(fast) == repr(made)
    assert fast == made
    assert _outcome(lambda: hash(fast)) == _outcome(lambda: hash(made))  # unhashable with an ndarray field
    name = dataclasses.fields(fast)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(fast, name, 1.0)
    replaced = [_outcome(lambda: repr(dataclasses.replace(r, **{name: 2.0}))) for r in (fast, made)]
    assert replaced[0] == replaced[1]
    assert repr(dataclasses.asdict(fast)) == repr(dataclasses.asdict(made))
