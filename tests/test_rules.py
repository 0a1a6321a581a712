"""The number rule and the count rule at every public entry point.

``errors.real`` holds the number rule (a finite real that is not a bool,
numpy scalars included, returned as a float) and ``errors.count`` the count
rule (an integer that is not a bool, at least a given least).  Both raise
ValidationError naming the input.  A property draws bad values for each
numeric argument of the record constructors, ``criterion_from_dict``,
``FitProblem`` and ``fit``, the ``limits`` functions, the samplers, the
convexity oracles and the readers of the shapes and meridians, and
checks that only a YieldCritError escapes and that a record built from an
accepted value holds a plain float.  Regressions pin each guess that became
a refusal or a conversion, and each bare Python error that became typed.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import yieldcrit as yc
from yieldcrit import (
    CapMeridian,
    CosineLode,
    Criterion,
    DomainError,
    FitDataset,
    FitProblem,
    GudehusArgyris,
    LinearMeridian,
    PowerLaw,
    ValidationError,
    VonMises,
    WillamWarnke,
    YieldCritError,
    YieldParams,
    criterion_from_dict,
    fit,
    load_dataset,
)
from yieldcrit.convexity import powerlaw_quadratic
from yieldcrit.criterion import shape_from_dict
from yieldcrit.errors import count, real

NATIVE = {"M": 0.75, "pc": 1.0, "c": 0.1, "m": 2.0, "alpha": 1.0, "beta": 1.0, "gamma": 0.0}
CRIT = YieldParams(**NATIVE).criterion()
CONE = Criterion(LinearMeridian(Gamma=0.8, c=0.2), CosineLode(1.0, 0.3))
DATA = load_dataset("p,q,theta\n0.2,0.45,0\n0.5,0.55,0\n0.8,0.35,0\n")
PROBLEM = FitProblem(template=CRIT, free=("M",))


# Each public entry point as (call, its valid keyword arguments).  A call
# takes every argument by name, so one can be swapped for a bad value.
ENTRIES = {
    "CapMeridian": (CapMeridian, {k: NATIVE[k] for k in ("M", "pc", "c", "m", "alpha")}),
    "LinearMeridian": (LinearMeridian, {"Gamma": 0.8, "c": 0.2}),
    "CosineLode": (CosineLode, {"beta": 1.0, "gamma": 0.3}),
    "PowerLaw": (PowerLaw, {"beta": 0.5, "n": 3.0}),
    "WillamWarnke": (WillamWarnke, {"e": 0.7}),
    "GudehusArgyris": (GudehusArgyris, {"k": 0.9}),
    "Criterion": (lambda **kw: Criterion(CRIT.meridian, CRIT.shape, **kw), {"A": 0.1, "B": 1.0}),
    "YieldParams": (YieldParams, NATIVE),
    "YieldParams.limit_mode": (lambda **kw: YieldParams.limit_mode(**kw)[0], NATIVE),
    "VonMises": (yc.VonMises, {"ft": 1.0}),
    "Tresca": (yc.Tresca, {"ft": 1.0}),
    "DruckerPrager": (yc.DruckerPrager, {"fc": 2.0, "r": 3.0}),
    "ModifiedTresca": (yc.ModifiedTresca, {"fc": 2.0, "r": 3.0}),
    "CoulombMohr": (yc.CoulombMohr, {"fc": 2.0, "r": 3.0}),
    "ModifiedCamClay": (yc.ModifiedCamClay, {"M": 0.75, "pc": 1.0}),
    "criterion_from_dict": (lambda **kw: criterion_from_dict(kw), dict(NATIVE, A=0.1, B=1.0)),
    "criterion_from_dict linear": (
        lambda **kw: criterion_from_dict(dict(kw, meridian="linear")),
        {"Gamma": 0.8, "c": 0.2, "beta": 1.0, "gamma": 0.3},
    ),
    "shape_from_dict": (lambda **kw: shape_from_dict(dict(kw, kind="power-law")), {"beta": 0.5, "n": 3.0}),
    "FitProblem bounds": (
        lambda low, high: FitProblem(template=CRIT, free=("M",), bounds=(("M", (low, high)),)),
        {"low": 0.5, "high": 1.0},
    ),
    "fit": (
        lambda init, seed, n_starts: fit(PROBLEM, DATA, init={"M": init}, seed=seed, n_starts=n_starts),
        {"init": 0.6, "seed": 0, "n_starts": 2},
    ),
    "fit starts": (lambda seed, n_starts: fit(PROBLEM, DATA, seed=seed, n_starts=n_starts), {"seed": 0, "n_starts": 2}),
    "realize": (lambda k: yc.realize(VonMises(ft=1.0), scale_exponent=k), {"k": 6}),
    "coulomb_mohr_generalized": (
        yc.coulomb_mohr_generalized, {"fc": 3.0, "r": 2.0, "beta": 0.5, "scale_exponent": 6}
    ),
    "deshpande_fleck_to_bp": (yc.deshpande_fleck_to_bp, {"Y": 1.0, "alpha_df": 0.5}),
    "bp_to_deshpande_fleck": (yc.bp_to_deshpande_fleck, {"M": 1.0, "pc": 2.0, "c": 2.0}),
    "gurson_equivalent": (
        yc.gurson_equivalent, {"f_void": 0.1, "sigma_m": 1.0, "q1": 1.5, "q2": 1.0, "q3": 2.25}
    ),
    "gurson_yield": (
        lambda **kw: yc.gurson_yield((-0.5, 0.2, 0.1), **kw),
        {"f_void": 0.1, "sigma_m": 1.0, "q1": 1.5, "q2": 1.0, "q3": 2.25},
    ),
    "gurson_meridian_q": (
        yc.gurson_meridian_q, {"p": 0.3, "f_void": 0.1, "sigma_m": 1.0, "q1": 1.5, "q2": 1.0, "q3": 2.25}
    ),
    "newman_strength": (yc.newman_strength, {"sigma3": 1.0, "fc": 30.0}),
    "newman_invariants": (yc.newman_invariants, {"sigma3": 1.0, "fc": 30.0}),
    "sample_meridian": (
        lambda theta, n, low, high: yc.sample_meridian(CONE, theta, n, p_range=(low, high)),
        {"theta": 0.0, "n": 5, "low": -0.5, "high": 0.5},
    ),
    "sample_meridian p_range": (lambda p_range: yc.sample_meridian(CONE, 0.0, 5, p_range=p_range), {"p_range": (-0.5, 0.5)}),
    "sample_deviatoric": (lambda at_p, n: yc.sample_deviatoric(CRIT, at_p, n), {"at_p": 0.3, "n": 5}),
    "sample_biaxial": (lambda n: yc.sample_biaxial(CRIT, n), {"n": 5}),
    "surface_q_array": (lambda p, theta: yc.surface_q_array(p, theta, CRIT), {"p": 0.3, "theta": 0.1}),
    "yield_value_array": (lambda stress: yc.yield_value_array(stress, CRIT), {"stress": [[-0.5, 0.2, 0.1]]}),
    "invariants_array": (yc.invariants_array, {"stress": [[-0.5, 0.2, 0.1]]}),
    "yield_value": (lambda stress: yc.yield_value(stress, CRIT), {"stress": (-0.5, 0.2, 0.1)}),
    "invariants": (yc.invariants, {"stress": (-0.5, 0.2, 0.1)}),
    "gradient": (lambda stress: yc.gradient(stress, CRIT), {"stress": (-0.5, 0.2, 0.1)}),
    "FitDataset": (
        lambda points, weights: FitDataset(points=points, weights=weights),
        {"points": [[0.2, 0.45, 0.0]], "weights": [1.0]},
    ),
    "beta_bound": (yc.beta_bound, {"gamma": 0.3}),
    "powerlaw_beta_max": (yc.powerlaw_beta_max, {"n": 3.0}),
    "nonconvex_demo": (yc.nonconvex_demo, {"p": 0.3, "q": 0.1, "a": 1.0, "b": 1.0}),
    "hessian_qg": (lambda s1, s2: yc.hessian_qg(s1, s2, CosineLode(1.0, 0.3)), {"s1": 0.3, "s2": -0.1}),
    "deviatoric_curvature": (lambda theta: yc.deviatoric_curvature(theta, CosineLode(1.0, 0.3)), {"theta": 0.3}),
    "principal_from_invariants": (yc.principal_from_invariants, {"p": 0.3, "q": 0.5, "theta": 0.3}),
    "surface_q": (lambda p, theta: yc.surface_q(p, theta, CRIT), {"p": 0.3, "theta": 0.1}),
    "polygon_is_convex": (yc.polygon_is_convex, {"points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}),
    # the readers of each shape's and each meridian's formula body
    **{
        f"{type(shape).__name__}.{reader}": (getattr(shape, reader), {"theta": 0.3})
        for shape in (CosineLode(1.0, 0.3), PowerLaw(0.5, 3.0), WillamWarnke(0.7), GudehusArgyris(0.9))
        for reader in ("g", "dg", "d2g")
    },
    **{
        f"{type(meridian).__name__}.{reader}": (getattr(meridian, reader), {"p": 0.3})
        for meridian in (CRIT.meridian, CONE.meridian)
        for reader in ("f", "df")
    },
}

# bools, strings, NaN, the infinities, integers too large for a float or an
# index, numpy scalars and wrong shapes, each tried at every argument
HARD = [
    True, False, "x", "0.5", "", None, math.nan, math.inf, -math.inf, 10**400, -(10**400), 2**63,
    np.float32(0.5), np.float64(2.0), np.int64(3), np.float32(math.nan), np.int32(-1), np.True_,
    np.array(0.5), np.array([0.5, 0.6]), np.zeros((2, 2)), (0.5,), (0.5, 0.6, 0.7), [], {"x": 1.0},
    # strings that numpy reads as numbers, alone and in arrays
    b"0.5", ["0.5"], [["1", "2", "3"]], np.array(["0.5"]), np.array([0.5, "0.6"], dtype=object),
    ("0.5", "0.6", "0.7"), [0.5, 0.6, b"0.7"],
    # None in an array, which numpy reads as NaN
    [0.1, None],
]
# and numbers of every size; a count is drawn no larger than 10, so no call allocates much
NUMBERS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-5, 10))
ARGUMENTS = [(entry, name) for entry, (_, valid) in sorted(ENTRIES.items()) for name in sorted(valid)]


def _floats_held(value) -> bool:
    """True unless ``value`` is a record with a parameter that is not a plain float."""
    if not dataclasses.is_dataclass(value):
        return True
    return all(
        type(getattr(value, f.name)) is float for f in dataclasses.fields(value) if f.type == "float"
    )


def _holds_non_numbers(value) -> bool:
    """Whether ``value`` is a str, bytes or None, or an array or a list that holds one."""
    if value is None or isinstance(value, (str, bytes)):
        return True
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "SU" or value.dtype == object and any(map(_holds_non_numbers, value.flat))
    return isinstance(value, (list, tuple)) and any(map(_holds_non_numbers, value))


def _call_with(entry, name, bad):
    """Call ``entry`` with ``bad`` for argument ``name``; only a YieldCritError may escape,
    text and None are refused, and a record it returns holds plain floats."""
    call, valid = ENTRIES[entry]
    try:
        out = call(**dict(valid, **{name: bad}))
    except YieldCritError:
        return
    assert not _holds_non_numbers(bad), (entry, name, bad)
    records = out if isinstance(out, tuple) else (out,)
    for record in records + tuple(getattr(out, w, None) for w in ("meridian", "shape", "params")):
        assert _floats_held(record), (entry, name, bad, record)


@pytest.mark.parametrize("entry, name", ARGUMENTS, ids=[f"{e}:{n}" for e, n in ARGUMENTS])
@given(number=NUMBERS)
@settings(max_examples=15, deadline=None)
def test_only_typed_errors_escape_the_public_api(entry, name, number):
    with warnings.catch_warnings():
        # a warning is not an error: numpy's overflow gives an inf or a NaN,
        # and deshpande_fleck_to_bp warns near the foam limit
        warnings.simplefilter("ignore")
        for bad in HARD + [number]:
            _call_with(entry, name, bad)


# ---------------------------------------------------------------------------
# The two rules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value, result",
    [(1, 1.0), (-2.5, -2.5), (np.float32(0.75), 0.75), (np.int64(3), 3.0), (np.float64(1e300), 1e300)],
)
def test_real_accepts_finite_reals_as_floats(value, result):
    out = real(value, "x")
    assert out == result and type(out) is float


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "x must be a number, got True"),
        (np.True_, "x must be a number, got np.True_"),
        ("0.5", "x must be a number, got '0.5'"),
        (None, "x must be a number, got None"),
        ([0.5], "x must be a number, got [0.5]"),
        (math.nan, "x must be finite, got nan"),
        (-math.inf, "x must be finite, got -inf"),
        (np.float32(math.inf), "x must be finite, got inf"),
        (10**400, "x must be finite, got an integer too large for a float"),
    ],
)
def test_real_refuses_with_the_name(value, message):
    with pytest.raises(ValidationError) as info:
        real(value, "x")
    assert str(info.value) == message


@pytest.mark.parametrize("value", [3, 10, np.int64(4), np.int32(3)])
def test_count_accepts_integers_as_ints(value):
    out = count(value, "n", 3)
    assert out == value and type(out) is int


@pytest.mark.parametrize(
    "value, message",
    [
        (2, "n must be an integer of at least 3, got 2"),
        (5.0, "n must be an integer of at least 3, got 5.0"),
        (5.5, "n must be an integer of at least 3, got 5.5"),
        (True, "n must be an integer of at least 3, got True"),
        ("5", "n must be an integer of at least 3, got '5'"),
        (None, "n must be an integer of at least 3, got None"),
        (math.nan, "n must be finite, got nan"),
        (math.inf, "n must be finite, got inf"),
        (2**63, "n must be an integer of at least 3, got one too large for an index"),
        (-(10**5000), "n must be an integer of at least 3, got one too large for an index"),
    ],
    ids=["below", "float", "fraction", "bool", "str", "none", "nan", "inf", "past-index", "unprintable"],
)
def test_count_refuses_with_the_name(value, message):
    with pytest.raises(ValidationError) as info:
        count(value, "n", 3)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Guesses that became refusals or conversions
# ---------------------------------------------------------------------------


def test_a_bool_parameter_is_refused_by_the_record():
    # YieldParams(M=True) was built, and held True
    with pytest.raises(ValidationError) as info:
        YieldParams(**dict(NATIVE, M=True))
    assert str(info.value) == "M must be a number, got True"


def test_a_bool_strength_is_refused_by_a_classical_record():
    # VonMises(ft=True) was built, and realized with ft = 1
    with pytest.raises(ValidationError) as info:
        VonMises(ft=True)
    assert str(info.value) == "ft must be a number, got True"


def test_a_string_parameter_is_a_validation_error():
    # a bare TypeError before
    with pytest.raises(ValidationError, match="M must be a number, got '0.75'"):
        YieldParams(**dict(NATIVE, M="0.75"))


def test_numpy_scalars_become_floats_in_every_record():
    # criterion_from_dict refused np.float32 before, and the records stored it
    params = YieldParams(**{k: np.float32(v) for k, v in NATIVE.items()})
    assert all(type(getattr(params, k)) is float for k in NATIVE)
    crit = criterion_from_dict(dict(NATIVE, M=np.float32(0.75), A=np.float64(0.1)))
    assert crit == criterion_from_dict(dict(NATIVE, A=0.1))
    assert type(crit.meridian.M) is float and type(crit.A) is float


def test_a_bool_shape_parameter_is_refused():
    # beta_bound(True) was a DomainError of gamma's range, and powerlaw_beta_max(True) 1/7
    with pytest.raises(ValidationError, match="gamma must be a number, got True"):
        yc.beta_bound(True)
    with pytest.raises(ValidationError, match="n must be a number, got True"):
        yc.powerlaw_beta_max(True)


def test_a_fractional_sample_count_is_refused():
    # sample_biaxial(n=5.5) ended in a TypeError from range()
    with pytest.raises(ValidationError) as info:
        yc.sample_biaxial(CRIT, n=5.5)
    assert str(info.value) == "n must be an integer of at least 3, got 5.5"
    with pytest.raises(ValidationError, match="n must be an integer of at least 2, got 2.5"):
        yc.sample_meridian(CRIT, 0.0, n=2.5)


# ---------------------------------------------------------------------------
# Bare Python errors that became typed
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: yc.beta_bound("x"), "gamma must be a number, got 'x'"),
        (lambda: yc.powerlaw_beta_max("x"), "n must be a number, got 'x'"),
        (lambda: yc.nonconvex_demo(0.1, 0.1, "x", 1.0), "a must be a number, got 'x'"),
        (lambda: yc.newman_strength("a", 1.0), "sigma3 must be a number, got 'a'"),
        (lambda: yc.deshpande_fleck_to_bp("a", 1.0), "Y must be a number, got 'a'"),
        (lambda: yc.sample_biaxial(CRIT, n="5"), "n must be an integer of at least 3, got '5'"),
        (lambda: VonMises(ft="1"), "ft must be a number, got '1'"),
        (lambda: fit(PROBLEM, DATA, init=[0.5]), "init must be an object of values by name, got [0.5]"),
        (lambda: fit(PROBLEM, "x"), "fit needs a FitProblem and a FitDataset, got FitProblem and str"),
        (lambda: fit("x", DATA), "fit needs a FitProblem and a FitDataset, got str and FitDataset"),
        (lambda: FitProblem("x", ("M",)), "FitProblem needs a Criterion, got str"),
        # certify ended in an AttributeError, the samplers in one or in a false UnboundedDomain
        (lambda: yc.certify(YieldParams(**NATIVE)), "certify needs a Criterion, got YieldParams"),
        (lambda: yc.sample_biaxial(YieldParams(**NATIVE), 5), "sample_biaxial needs a Criterion, got YieldParams"),
        (lambda: yc.sample_meridian(YieldParams(**NATIVE), 0.1, 5), "sample_meridian needs a Criterion, got YieldParams"),
        (lambda: yc.sample_deviatoric(YieldParams(**NATIVE), 0.5, 5), "sample_deviatoric needs a Criterion, got YieldParams"),
        (lambda: yc.normal_limits("tension_apex", CRIT), "normal_limits needs a YieldParams, got Criterion"),
        (
            lambda: FitDataset(points="x", weights=[1.0]),
            "points and weights must be arrays of numbers, got 'x' and [1.0]",
        ),
    ],
)
def test_library_refusals_are_validation_errors(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: yc.yield_value("abc", CRIT), "stress must be three numbers, got 'abc'"),
        (lambda: yc.yield_value([1, 2], CRIT), "stress must be three numbers, got [1, 2]"),
        (lambda: yc.yield_value((1, "a", 0), CRIT), "stress must be three numbers, got (1, 'a', 0)"),
        (lambda: yc.invariants_array([[1, 2, 3], [1, 2]]), "stress must be an array of numbers, got [[1, 2, 3], [1, 2]]"),
        (lambda: yc.surface_q("a", 0.1, CRIT), "p must be a number or an array of numbers, got 'a'"),
        (lambda: yc.surface_q([0.1, 0.2], 0.1, CRIT), "p must be one number, got [0.1, 0.2]; surface_q_array takes arrays"),
        (lambda: yc.surface_q(0.1, "a", CRIT), "theta must be a number or an array of numbers, got 'a'"),
        (lambda: yc.surface_q_array("a", 0.1, CRIT), "p must be a number or an array of numbers, got 'a'"),
        (lambda: yc.hessian_qg("x", 1.0, CRIT.shape), "s1 must be a number or an array of numbers, got 'x'"),
        (lambda: CRIT.shape.g("x"), "theta must be a number or an array of numbers, got 'x'"),
        (lambda: CRIT.shape.dg([0.1, "x"]), "theta must be a number or an array of numbers, got [0.1, 'x']"),
        (lambda: CRIT.shape.d2g(None), "theta must be a number or an array of numbers, got None"),
        (lambda: CRIT.meridian.df("x"), "p must be a number or an array of numbers, got 'x'"),
        (lambda: CRIT.meridian.df(10**400), "p must be a number or an array of numbers, got an integer too large for a float"),
        (lambda: CRIT.meridian.df(1.0), "df/dp is infinite at p=1.0, an end of the cap"),
        (lambda: CRIT.meridian.f("x"), "p must be a number or an array of numbers, got 'x'"),
        (lambda: yc.nonconvex_demo("x", 0.1, 1.0, 1.0), "p must be a number or an array of numbers, got 'x'"),
        (lambda: yc.polygon_is_convex("x"), "points must be a number or an array of numbers, got 'x'"),
        (lambda: yc.polygon_is_convex([0.0, 1.0]), "points must be an (n, 2) array, got shape (2,)"),
    ],
)
def test_evaluation_inputs_are_domain_errors(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: yc.surface_q_array("0.5", 0.1, CRIT), "p must be a number or an array of numbers, got '0.5'"),
        (lambda: yc.surface_q_array(0.5, ["0.1"], CRIT), "theta must be a number or an array of numbers, got ['0.1']"),
        (lambda: CRIT.meridian.f(["0.5"]), "p must be a number or an array of numbers, got ['0.5']"),
        (lambda: CRIT.meridian.df(b"0.5"), "p must be a number or an array of numbers, got b'0.5'"),
        (
            lambda: yc.yield_value_array([["1", "2", "3"]], CRIT),
            "stress must be an array of numbers, got [['1', '2', '3']]",
        ),
        (lambda: yc.invariants(np.array(["1", "2", "3"])), "stress must be three numbers, got array(['1', '2', '3'], dtype='<U1')"),
        # a 3-tuple or 3-list goes through float(), which reads a numeric string too
        (lambda: yc.yield_value(("-0.5", "-0.2", "-0.1"), CRIT), "stress must be three numbers, got ('-0.5', '-0.2', '-0.1')"),
        (lambda: yc.invariants([1.0, 2.0, b"3"]), "stress must be three numbers, got [1.0, 2.0, b'3']"),
        (lambda: yc.gradient((-0.5, "-0.2", -0.1), CRIT), "stress must be three numbers, got (-0.5, '-0.2', -0.1)"),
        (lambda: yc.hessian_qg("0.3", -0.1, CRIT.shape), "s1 must be a number or an array of numbers, got '0.3'"),
        (lambda: yc.nonconvex_demo("0.3", 0.1, 1.0, 1.0), "p must be a number or an array of numbers, got '0.3'"),
        (lambda: CRIT.shape.g("0.3"), "theta must be a number or an array of numbers, got '0.3'"),
        (lambda: CRIT.shape.dg(np.array(["0.3"], dtype=object)), "theta must be a number or an array of numbers, got array(['0.3'], dtype=object)"),
        (lambda: yc.principal_from_invariants(0.0, 1.0, b"0.3"), "theta must be a number or an array of numbers, got b'0.3'"),
        (lambda: powerlaw_quadratic("0.3", 0.5, 3.0), "x must be a number or an array of numbers, got '0.3'"),
    ],
)
def test_numeric_strings_are_not_numbers(call, message):
    # numpy reads each string as a number; the number rule refuses them
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def test_a_fit_dataset_of_numeric_strings_is_refused():
    with pytest.raises(ValidationError, match="points and weights must be arrays of numbers"):
        FitDataset(points=[["0.2", "0.45", "0"]], weights=[1.0])


CAP = CapMeridian(M=0.75, pc=1.0, c=0.1, m=2.0, alpha=1.0)


@pytest.mark.parametrize(
    "p, message",
    [
        (5.0, "df/dp is undefined at p=5.0, which is not inside the cap"),
        (-0.5, "df/dp is undefined at p=-0.5, which is not inside the cap"),
        (math.inf, "df/dp is undefined at p=inf, which is not inside the cap"),
        (-0.1, "df/dp is infinite at p=-0.1, an end of the cap"),
        (1.0, "df/dp is infinite at p=1.0, an end of the cap"),
    ],
)
def test_df_outside_the_open_cap_is_a_domain_error(p, message):
    # it gave the slope at Phi = 1/2 outside the cap, where f is +inf
    with pytest.raises(DomainError) as info:
        CAP.df(p)
    assert str(info.value) == message


def test_df_where_h_underflows_next_to_an_end_is_refused_or_nan_with_no_warning():
    # Phi = 5e-324 is inside the cap, but h = Phi (1 - Phi) alpha rounds to 0 there
    cap = CapMeridian(M=1.0, pc=1.0, c=0.0, m=2.0, alpha=0.5)
    with pytest.raises(DomainError) as info:
        cap.df(5e-324)
    assert str(info.value) == "df/dp is infinite at p=5e-324, an end of the cap"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cap.df(np.array([5e-324, 0.5]))
    assert np.isnan(got[0]) and got[1] == cap.df(0.5) == -0.25


def test_df_of_an_array_is_nan_outside_the_open_cap_with_no_warning():
    p = np.array([5.0, 1.0, 0.5, -0.1, -0.5, math.inf, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = CAP.df(p)
    inside = [False, False, True, False, False, False, True]
    assert np.isnan(got[~np.array(inside)]).all()
    assert got[2] == CAP.df(0.5) and got[6] == CAP.df(0.2)
    assert np.isfinite(got[np.array(inside)]).all()


# ---------------------------------------------------------------------------
# One convexity gate, and one number pass per file parameter
# ---------------------------------------------------------------------------

NATIVE_FILE = dict(NATIVE, A=0.0, B=1.0)


def _calls(monkeypatch, name) -> list:
    """The argument tuple of each call of ``criterion.<name>`` from now on."""
    from yieldcrit import criterion

    seen, inner = [], getattr(criterion, name)

    def counted(*args):
        seen.append(args)
        return inner(*args)

    monkeypatch.setattr(criterion, name, counted)
    return seen


def test_a_checked_native_record_evaluates_beta_bound_once(monkeypatch):
    bounds = _calls(monkeypatch, "beta_bound")
    YieldParams(**NATIVE)
    assert bounds == [(0.0,)]
    bounds.clear()
    criterion_from_dict(NATIVE_FILE)
    assert bounds == [(0.0,)]
    bounds.clear()
    criterion_from_dict(NATIVE_FILE, unchecked=True)
    assert bounds == []


def test_each_file_parameter_meets_the_number_rule_once(monkeypatch):
    reals = _calls(monkeypatch, "real")
    criterion_from_dict(NATIVE_FILE)
    # the nine parameters in their records, then gamma in the gate's beta_bound
    assert [name for _, name in reals] == ["M", "pc", "c", "m", "alpha", "beta", "gamma", "A", "B", "gamma"]


@pytest.mark.parametrize(
    "d",
    [
        {"kind": "bp", "beta": 1.0, "gamma": 0.3},
        {"kind": "power-law", "beta": 0.5, "n": 2},
        {"kind": "willam-warnke", "e": 0.8},
        {"kind": "gudehus-argyris", "k": 0.9},
    ],
    ids=lambda d: d["kind"],
)
def test_shape_from_dict_puts_each_field_under_the_number_rule_once(monkeypatch, d):
    reals = _calls(monkeypatch, "real")
    shape = shape_from_dict(d)
    assert [name for _, name in reals] == [k for k in d if k != "kind"]
    assert shape.to_dict() == {k: (v if k == "kind" else float(v)) for k, v in d.items()}


# ---------------------------------------------------------------------------
# The dataset's row rules: one home, named by row or by line
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "row, what",
    [("0.5,-1.0,0.3", "q must be nonnegative, got -1.0"), ("0.5,0.3,2.0", "theta must lie in [0, pi/3], got 2.0")],
)
def test_a_bad_row_is_named_by_row_and_by_line(row, what):
    with pytest.raises(ValidationError) as info:
        FitDataset(points=[[0.5, 0.2, 0.3], [float(v) for v in row.split(",")]], weights=np.ones(2))
    assert str(info.value) == f"row 1: {what}"
    with pytest.raises(ValidationError) as info:
        load_dataset(f"# two points\np,q,theta\n0.5,0.2,0.3\n\n{row}\n")
    assert str(info.value) == f"line 5: {what}"


# ---------------------------------------------------------------------------
# Arithmetic past the float range, found by the property
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: yc.gurson_equivalent(0.1, 1.0, q1=0.0), "q1=0.0, q2=1.0 and sigma_m=1.0 leave no cap size"),
        (lambda: yc.gurson_equivalent(0.1, 1.0, q2=0.0), "q1=1.5, q2=0.0 and sigma_m=1.0 leave no cap size"),
        (lambda: yc.gurson_equivalent(0.1, 1.0, q2=6e307), "q1=1.5, q2=6e+307 and sigma_m=1.0 leave no cap size"),
        (lambda: yc.gurson_meridian_q(0.3, 1e200, 1.0), "void fraction must lie in [0, 1), got 1e+200"),
        (lambda: yc.gurson_yield((1.0, 0.0, 0.0), 0.1, 1e-200), "the Gurson-Tvergaard function overflows"),
        (lambda: yc.gurson_yield((1.0, 0.0, 0.0), 0.1, 1.0, q2=2.0**63), "the Gurson-Tvergaard function overflows"),
    ],
)
def test_gurson_inputs_past_the_float_range_are_domain_errors(call, message):
    # a ZeroDivisionError or an OverflowError before
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value).startswith(message)


def test_the_foam_correspondence_holds_for_a_large_pressure_sensitivity():
    # (alpha_df / 3)^2 and (M / 6)^2 overflowed; the hypotenuse does not
    params = yc.deshpande_fleck_to_bp(1.0, 1e300)
    assert params.pc == pytest.approx(1.0 / 3.0, rel=1e-15)
    Y, alpha_df = yc.bp_to_deshpande_fleck(1e300, 2.0, 2.0)
    assert (Y, alpha_df) == (pytest.approx(6.0, rel=1e-15), 5e299)


def test_a_native_shape_angle_past_the_floats_is_refused():
    # beta pi overflowed to inf, and g(theta) ended in a ValueError from math.cos
    with pytest.raises(ValidationError, match="puts the angle beta pi / 6 past the floats"):
        CosineLode(beta=6e307, gamma=0.0)
    with pytest.raises(ValidationError, match="beta=-1.7976931348623157e"):
        yc.coulomb_mohr_generalized(3.0, 2.0, -1.7976931348623157e308)


@pytest.mark.parametrize("n", [1e9, 1e16, 1e200])
def test_a_large_power_law_exponent_is_certified(n):
    # powerlaw_beta_max divided by zero past n = 7e15 and overflowed past 1e154
    beta_max = yc.powerlaw_beta_max(n)
    assert beta_max == pytest.approx(8.0 * n / 9.0 + 7.0 / 6.0, rel=1e-15)
    assert yc.certify(Criterion(CRIT.meridian, PowerLaw(beta=0.5, n=n))).admissible
