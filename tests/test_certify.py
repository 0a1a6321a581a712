"""``certify`` against grid oracles, and its one rule at the interval ends.

The verdicts come from each record's closed-form condition.  The oracle
here is built from grid checks instead: g > 0 and the curvature
combination of :func:`deviatoric_curvature` over a theta grid, and
``meridian_convexity_check`` (conftest) over a Phi grid.  Draws whose condition
margin lies within 1e-6 of its boundary are left to the closed form.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yieldcrit import (
    CapMeridian,
    CosineLode,
    Criterion,
    GudehusArgyris,
    LinearMeridian,
    PowerLaw,
    WillamWarnke,
    beta_bound,
    certify,
    deviatoric_curvature,
    powerlaw_beta_max,
)
from yieldcrit.cli import main
from yieldcrit.criterion import BOUNDARY_TOL, beta_in_convex_interval
from conftest import meridian_convexity_check

PI3 = math.pi / 3.0
THETA = np.linspace(0.0, PI3, 4097)
CAP = CapMeridian(M=0.75, pc=1.0, c=0.1, m=2.0, alpha=1.0)


def unit(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


meridians = st.one_of(
    st.builds(
        CapMeridian,
        M=unit(0.1, 3.0),
        pc=unit(0.1, 10.0),
        c=unit(0.0, 1.0),
        m=unit(-6.0, 1.5).map(lambda t: 1.0 + 10.0**t),
        alpha=unit(0.0, 2.0, exclude_min=True, exclude_max=True),
    ),
    st.builds(LinearMeridian, Gamma=unit(0.1, 3.0), c=unit(0.0, 1.0)),
)


@st.composite
def power_laws(draw):
    n = draw(unit(0.05, 10.0))
    return PowerLaw(beta=powerlaw_beta_max(n) * draw(unit(0.0, 2.0)), n=n)


shapes = st.one_of(
    st.builds(CosineLode, beta=unit(-3.0, 5.0), gamma=unit(0.0, 0.999)),
    power_laws(),
    st.builds(WillamWarnke, e=unit(0.5, 1.0, exclude_min=True)),
    st.builds(GudehusArgyris, k=unit(0.777, 1.0, exclude_min=True)),
)


def grid_shape_ok(shape) -> bool:
    """g finite and positive, and the curvature combination, relative to
    g^2, nonnegative to 1e-9 on the theta grid."""
    g = shape.g(THETA)
    if not np.all(np.isfinite(g) & (g > 0.0)):
        return False
    return bool(np.min(deviatoric_curvature(THETA, shape) / (g * g)) >= -1e-9)


def grid_meridian_ok(meridian) -> bool:
    if isinstance(meridian, LinearMeridian):
        return True  # affine in p
    return meridian_convexity_check(meridian.alpha, meridian.m)[0]


@settings(max_examples=400, deadline=None)
@given(meridian=meridians, shape=shapes, A=st.one_of(st.just(0.0), unit(0.01, 5.0)))
def test_certify_agrees_with_the_grid_oracles(meridian, shape, A):
    report = certify(Criterion(meridian=meridian, shape=shape, A=A))
    assert report.admissible == (report.meridian_ok and report.deviatoric_ok)
    theta, margin = report.deviatoric_worst
    assert 0.0 <= theta <= PI3
    if abs(margin) > 1e-6:
        assert report.deviatoric_ok == (margin > 0.0)
        assert report.deviatoric_ok == grid_shape_ok(shape)
    margin = report.meridian_worst[1]
    if abs(margin) > 1e-6:
        assert report.meridian_ok == (margin > 0.0)
        assert report.meridian_ok == grid_meridian_ok(meridian)


GAMMAS = [0.1, 0.5, 0.6153851108658688, 0.9]


@pytest.mark.parametrize("gamma", GAMMAS)
def test_certify_admits_the_interval_band_as_the_parameter_check_does(gamma):
    hi = beta_bound(gamma)
    for beta in (hi + BOUNDARY_TOL, 2.0 - hi - BOUNDARY_TOL):
        report = certify(Criterion(meridian=CAP, shape=CosineLode(beta, gamma)))
        assert report.admissible == beta_in_convex_interval(beta, gamma)[0] is True
        assert report.notes == ("beta at the convexity boundary",)


def test_eval_accepts_a_file_that_passes_the_interval_check(capsys, tmp_path):
    params = {
        "M": 0.75, "pc": 1, "c": 0, "m": 2, "alpha": 1,
        "beta": 2.1926768751935692, "gamma": 0.6153851108658688,
    }
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(params), encoding="utf-8")
    code = main(["eval", "--params", str(path), "--stress=-0.4,-0.5,-0.6"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert math.isfinite(json.loads(out)["F"])


def test_power_law_past_beta_max_names_one_condition():
    report = certify(Criterion(meridian=CAP, shape=PowerLaw(beta=1.9134, n=0.1221)))
    assert not report.admissible
    assert report.notes == ("beta=1.9134 exceeds beta_max=0.013945 for n=0.1221",)
    assert report.deviatoric_worst[1] == pytest.approx(powerlaw_beta_max(0.1221) - 1.9134)


def test_native_shape_with_g_changing_sign_at_the_sector_end():
    # beta_bound(0) rounds just above 4, where g(0) = 1/cos(psi) is about -1.2e15;
    # the interval check admits it, the check of g at the ends does not
    beta = beta_bound(0.0)
    assert beta_in_convex_interval(beta, 0.0)[0]
    report = certify(Criterion(meridian=CAP, shape=CosineLode(beta, 0.0)))
    assert not report.deviatoric_ok
    assert report.notes == ("g(theta) is not positive throughout the sector",)
    theta, margin = report.deviatoric_worst
    assert theta == 0.0 and margin < 0.0


@pytest.mark.parametrize(
    "shape",
    [CosineLode(np.float64(1.0), np.float64(0.5)), PowerLaw(np.float64(0.8), np.float64(3.0))],
    ids=["bp", "power-law"],
)
def test_report_of_numpy_parameters_is_plain_json(shape):
    # numpy scalars compare to numpy bools, which json cannot write
    report = certify(Criterion(meridian=CAP, shape=shape))
    assert type(report.admissible) is bool and type(report.deviatoric_ok) is bool
    json.dumps(report.to_dict(), allow_nan=False)
