import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from yieldcrit import (
    CapMeridian,
    CosineLode,
    CoulombMohr,
    Criterion,
    DomainError,
    DruckerPrager,
    EmptySlice,
    LinearMeridian,
    ModifiedCamClay,
    ModifiedTresca,
    NonConvexSlice,
    OutsideCap,
    Tresca,
    UnboundedDomain,
    VonMises,
    YieldParams,
    certify,
    criterion_from_dict,
    curve_to_csv,
    curve_to_svg,
    normalized_residual,
    polygon_is_convex,
    principal_from_invariants,
    realize,
    sample_biaxial,
    sample_deviatoric,
    sample_meridian,
    sections,
    yield_value,
    yield_value_array,
)
from yieldcrit.cli import main
from test_batch import criteria

PI3 = math.pi / 3.0

CAM_CLAY = YieldParams(M=0.75, pc=1.0, c=0.0, m=2.0, alpha=1.0, beta=1.0, gamma=0.0)


class TestMeridian:
    def test_cam_clay_ellipse(self):
        curve = sample_meridian(CAM_CLAY.criterion(), theta=0.0, n=201)
        p, q = curve.samples[:, 0], curve.samples[:, 1]
        np.testing.assert_allclose(q, 0.75 * np.sqrt(np.maximum(0.0, p * (1.0 - p))), atol=1e-14)
        assert q.max() == pytest.approx(0.375, abs=1e-6)

    def test_two_points_are_the_apices(self):
        params = YieldParams(M=1.0, pc=2.0, c=0.5, m=2.0, alpha=1.0, beta=1.0, gamma=0.0)
        curve = sample_meridian(params.criterion(), theta=0.2, n=2)
        np.testing.assert_allclose(curve.samples, [[-0.5, 0.0], [2.0, 0.0]], atol=1e-14)

    def test_theta_scaling(self):
        params = YieldParams(M=0.6, pc=1.0, c=0.1, m=2.5, alpha=0.8, beta=0.4, gamma=0.8)
        crit = params.criterion()
        c0 = sample_meridian(crit, theta=0.0, n=50)
        c1 = sample_meridian(crit, theta=PI3, n=50)
        g0 = float(crit.shape.g(0.0))
        g1 = float(crit.shape.g(PI3))
        interior = slice(1, -1)
        np.testing.assert_allclose(
            c0.samples[interior, 1] / c1.samples[interior, 1], g0 / g1, rtol=1e-12
        )

    def test_linear_meridian_needs_range(self):
        crit = Criterion(meridian=LinearMeridian(Gamma=1.0, c=0.1), shape=CosineLode(1.0, 0.0))
        with pytest.raises(UnboundedDomain):
            sample_meridian(crit, theta=0.0, n=10)
        curve = sample_meridian(crit, theta=0.0, n=10, p_range=(0.0, 2.0))
        assert curve.samples.shape == (10, 2)

    def test_samples_satisfy_yield_condition(self):
        crit = CAM_CLAY.criterion()
        curve = sample_meridian(crit, theta=0.4, n=60)
        for p, q in curve.samples:
            sig = principal_from_invariants(p, q, 0.4)
            assert normalized_residual(crit, sig) <= 1e-10


class TestDeviatoric:
    def test_circle(self):
        curve = sample_deviatoric(CAM_CLAY.criterion(), at_p=0.5, n=40)
        r = np.hypot(curve.samples[:, 0], curve.samples[:, 1])
        np.testing.assert_allclose(r, 0.375, atol=1e-12)

    def test_rankine_like_normalized_ratio(self):
        params = YieldParams(M=1.0, pc=1.0, c=0.0, m=2.0, alpha=1.0, beta=0.0, gamma=0.9999)
        crit = params.criterion()
        curve = sample_deviatoric(crit, at_p=0.5, n=100, normalize=True)
        r = np.hypot(curve.samples[:, 0], curve.samples[:, 1])
        # radius 1 at triaxial compression (theta = pi/3), about 1/2 at
        # triaxial extension (theta = 0, the +x axis); the exact ratio at
        # gamma = 0.9999 deviates from 1/2 by the O(sqrt(1-gamma)) smoothing
        exact = float(crit.shape.g(0.0) / crit.shape.g(PI3))
        assert r[0] == pytest.approx(exact, rel=1e-9)
        assert r[0] == pytest.approx(0.5, abs=5e-3)
        assert r.max() == pytest.approx(1.0, abs=1e-9)

    def test_mirror_symmetry(self):
        params = YieldParams(M=0.8, pc=1.0, c=0.2, m=3.0, alpha=0.5, beta=0.3, gamma=0.9)
        curve = sample_deviatoric(params.criterion(), at_p=0.4, n=33)
        pts = curve.samples
        mirrored = pts * np.array([1.0, -1.0])
        # every mirrored point appears in the sample (the curve closes
        # under the six-fold symmetry)
        for mp in mirrored[:: len(pts) // 16]:
            d = np.min(np.hypot(pts[:, 0] - mp[0], pts[:, 1] - mp[1]))
            assert d <= 1e-9

    def test_outside_cap(self):
        with pytest.raises(OutsideCap):
            sample_deviatoric(CAM_CLAY.criterion(), at_p=1.5, n=10)

    def test_polygon_convexity_for_certified_specs(self, rng):
        from conftest import random_params

        for _ in range(5):
            params = random_params(rng)
            curve = sample_deviatoric(params.criterion(), at_p=0.4 * params.pc, n=60)
            assert polygon_is_convex(curve.samples)

    def test_samples_satisfy_yield_condition(self):
        params = YieldParams(M=0.8, pc=1.0, c=0.2, m=3.0, alpha=0.5, beta=0.3, gamma=0.9)
        crit = params.criterion()
        curve = sample_deviatoric(crit, at_p=0.4, n=50)
        for x, y in curve.samples:
            q = math.hypot(x, y)
            theta_full = math.atan2(y, x) % (2.0 * math.pi / 3.0)
            theta = min(theta_full, 2.0 * math.pi / 3.0 - theta_full)
            sig = principal_from_invariants(0.4, q, theta)
            assert normalized_residual(crit, sig) <= 1e-10


class TestBiaxial:
    def test_von_mises_ellipse(self):
        ft = 1.0
        crit = realize(VonMises(ft=ft), scale_exponent=6).criterion()
        curve = sample_biaxial(crit, n=64)
        s1, s2 = curve.samples[:, 0], curve.samples[:, 1]
        mises = np.sqrt(s1 * s1 - s1 * s2 + s2 * s2)
        np.testing.assert_allclose(mises, ft, atol=1e-4 * ft)

    def test_swap_symmetry(self):
        crit = CAM_CLAY.criterion()
        curve = sample_biaxial(crit, n=40)
        pts = curve.samples
        for sp in pts[::5]:
            d = np.min(np.hypot(pts[:, 0] - sp[1], pts[:, 1] - sp[0]))
            assert d <= 1e-6

    def test_crossing_residuals(self):
        crit = CAM_CLAY.criterion()
        curve = sample_biaxial(crit, n=48)
        for x, y in curve.samples:
            assert normalized_residual(crit, (x, y, 0.0)) <= 1e-10

    def test_polygon_convexity(self):
        params = YieldParams(M=0.9, pc=1.3, c=0.3, m=2.2, alpha=0.9, beta=0.5, gamma=0.7)
        curve = sample_biaxial(params.criterion(), n=90)
        assert polygon_is_convex(curve.samples)

    CLASSICAL = [
        VonMises(ft=1.0), Tresca(ft=1.0), DruckerPrager(fc=2.5, r=4.0), ModifiedTresca(fc=2.5, r=4.0),
        CoulombMohr(fc=2.5, r=4.0), ModifiedCamClay(M=0.75, pc=1.0),
    ]

    @pytest.mark.parametrize("k", range(3, 13))
    @pytest.mark.parametrize("classical", CLASSICAL, ids=lambda c: type(c).__name__)
    def test_every_realized_classical_criterion_samples(self, classical, k):
        # Coulomb-Mohr from k = 9 (pc / c past 1e9) was an EmptySlice, though F(0, 0, 0) < 0:
        # the search bracket's upper end stepped 1e-9 of the span inward, past the whole interior
        crit = realize(classical, scale_exponent=k).criterion()
        s, F = sections._biaxial_center(crit)
        assert F < 0.0
        for x, y in sample_biaxial(crit, n=8).samples:
            # along the ray from the center, F < 0 just short of each sample and F > 0 just past it
            short, past = [(s + t * (x - s), s + t * (y - s), 0.0) for t in (1.0 - 1e-6, 1.0 + 1e-6)]
            assert yield_value(short, crit) < 0.0 < yield_value(past, crit), (x, y)

    def test_normalized_by_tensile_intercept(self):
        ft = 2.5
        crit = realize(VonMises(ft=ft), scale_exponent=6).criterion()
        curve = sample_biaxial(crit, n=32, normalize=True)
        s1, s2 = curve.samples[:, 0], curve.samples[:, 1]
        np.testing.assert_allclose(np.sqrt(s1**2 - s1 * s2 + s2**2), 1.0, atol=1e-4)
        assert curve.xlabel.endswith("/ft")


def _cone(shape, Gamma, c=0.5, B=1.0):
    return Criterion(meridian=LinearMeridian(Gamma=Gamma, c=c), shape=shape, B=B)


# certified admissible, and its slice unbounded: F = t (B / g(0) - 2 Gamma / 3) < 0
# along equibiaxial compression (-t, -t, 0)
UNBOUNDED = {"meridian": "linear", "Gamma": 1, "c": 0, "deviatoric": {"kind": "bp", "beta": 0, "gamma": 0},
             "A": 0, "B": 0.5}


def _far_slopes(crit):
    """dF/dt far along 1440 directions of the sigma3 = 0 slice and along
    equibiaxial compression: F is affine in t there on a cone with A = 0."""
    phis = np.linspace(0.0, 2.0 * math.pi, 1440, endpoint=False)
    d = np.vstack([np.column_stack([np.cos(phis), np.sin(phis)]), [-math.sqrt(0.5), -math.sqrt(0.5)]])
    R = 1e6 * crit.meridian.scale

    def F(t):
        return yield_value_array(np.column_stack([t * d, np.zeros(len(d))]), crit)

    return (F(2.0 * R) - F(R)) / R


class TestUnboundedSlice:
    @pytest.mark.parametrize("n", [3, 4, 8, 200])
    def test_an_unbounded_cone_is_refused_for_every_n(self, n, capsys, tmp_path):
        with pytest.raises(UnboundedDomain):
            sample_biaxial(criterion_from_dict(UNBOUNDED), n)
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(UNBOUNDED), encoding="utf-8")
        code = main(["section", "biaxial", "--params", str(path), "-n", str(n)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("yieldcrit: the sigma3 = 0 slice is unbounded") and err.count("\n") == 1

    def test_the_boundary_of_the_condition(self):
        # g = 1 at every theta, so the slice is unbounded from Gamma = 1.5 B on
        shape = CosineLode(1.0, 0.0)
        assert np.all(shape.g(sections._CONE_THETAS) == 1.0)
        assert sections._unbounded(_cone(shape, 1.5))
        assert not sections._unbounded(_cone(shape, math.nextafter(1.5, 0.0)))
        with pytest.raises(UnboundedDomain):
            sample_biaxial(_cone(shape, 1.5), 8)
        # bounded 1e-6 inside it: the curve reaches s = -Gamma c / (B - 2 Gamma / 3) on the diagonal
        near = _cone(shape, 1.5 * (1.0 - 1e-6))
        curve = sample_biaxial(near, 8)
        assert max(normalized_residual(near, (x, y, 0.0)) for x, y in curve.samples) <= 1e-10
        assert curve.samples[5] == pytest.approx([-0.75e6, -0.75e6], rel=1e-6)
        assert polygon_is_convex(curve.samples)

    def test_caps_and_A_above_zero_are_bounded(self):
        shape = CosineLode(0.0, 0.0)
        assert not sections._unbounded(Criterion(meridian=CAM_CLAY.criterion().meridian, shape=shape))
        assert not sections._unbounded(Criterion(meridian=LinearMeridian(Gamma=1.0, c=0.0), shape=shape, A=1e-9))

    @pytest.mark.parametrize("n", [8, 200])
    def test_a_cone_one_ulp_inside_is_refused_for_its_rounding(self, n, capsys, tmp_path):
        # bounded and convex, but its diagonal crossing lies near 1e16, where
        # F is smaller than its own rounding: no sign of F there can be told
        crit = _cone(CosineLode(1.0, 0.0), math.nextafter(1.5, 0.0))
        assert not sections._unbounded(crit)
        with pytest.raises(UnboundedDomain, match="within its own rounding along ray"):
            sample_biaxial(crit, n)
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(crit.to_dict()), encoding="utf-8")
        code = main(["section", "biaxial", "--params", str(path), "-n", str(n)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("yieldcrit: F is within its own rounding") and err.count("\n") == 1

    @given(
        criteria(),
        st.one_of(st.floats(-1e-12, 1e-12), st.sampled_from([0.0, -2.0**-52, 2.0**-52])),
        st.floats(0.0, 1.0),
        st.one_of(st.integers(3, 24), st.just(200)),
    )
    @settings(max_examples=150, deadline=None)
    def test_cones_at_the_boundary_are_never_called_non_convex(self, crit_span, r, c, n):
        # a certified cone within 1e-12 relative of the boundary: bounded,
        # refused as unbounded, or refused for rounding, but never non-convex
        shape, B = crit_span[0].shape, crit_span[0].B
        crit = _cone(shape, 1.5 * B / float(shape.g(0.0)) * (1.0 + r), c, B)
        assume(certify(crit).admissible)
        try:
            sample_biaxial(crit, n)
        except NonConvexSlice as err:
            pytest.fail(f"a convex cone was called non-convex: {err}")
        except (UnboundedDomain, EmptySlice):
            pass

    @given(criteria(), st.floats(-0.5, 0.5), st.floats(0.0, 1.0), st.integers(3, 24))
    @settings(max_examples=150, deadline=None)
    def test_the_condition_is_what_F_does_along_far_rays(self, crit_span, u, c, n):
        # a cone from the drawn shape and B, with Gamma 10^u times the value
        # at which equibiaxial compression stops being bounded
        shape, B = crit_span[0].shape, crit_span[0].B
        crit = _cone(shape, 1.5 * B / float(shape.g(0.0)) * 10.0**u, c, B)
        assume(certify(crit).admissible)
        slope = float(_far_slopes(crit).min())
        assume(abs(slope) > 1e-9 * B)  # F along far rays cannot settle a tie
        assert sections._unbounded(crit) == (slope < 0.0)
        try:
            sample_biaxial(crit, n)
        except UnboundedDomain:
            assert slope < 0.0
        except EmptySlice:  # c = 0, or nearly: the slice is the apex
            assert slope > 0.0
        else:
            assert slope > 0.0


class TestGeometryCache:
    """The angles, radius index and (cos, sin) of a deviatoric curve, and the
    ray directions of a biaxial one, depend on n alone and are cached per n."""

    CRIT = YieldParams(M=0.8, pc=1.0, c=0.2, m=3.0, alpha=0.5, beta=0.3, gamma=0.9).criterion()

    def test_cached_geometry_is_read_only(self):
        sample_deviatoric(self.CRIT, 0.4, 200)
        sample_biaxial(self.CRIT, 16)
        for a in (*sections._sector_grid(200), sections._ray_fan(16)):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    @pytest.mark.parametrize("sample", [
        lambda crit: sample_deviatoric(crit, 0.4, 200),
        lambda crit: sample_biaxial(crit, 16),
    ])
    def test_mutating_a_curve_leaves_the_next_one_alone(self, sample):
        first = sample(self.CRIT)
        want = first.samples.tobytes()
        first.samples[:] = math.nan
        assert sample(self.CRIT).samples.tobytes() == want

    def _bits(self, n, normalize):
        return (
            sample_deviatoric(self.CRIT, 0.4, n, normalize=normalize).samples.tobytes(),
            sample_biaxial(self.CRIT, n, normalize=normalize).samples.tobytes(),
        )

    def test_interleaved_n_give_the_bits_of_fresh_calls(self):
        runs = [(n, normalize) for normalize in (False, True) for n in (200, 3, 200, 7, 200)]
        got = [self._bits(*run) for run in runs]
        for run, bits in zip(runs, got):
            sections._sector_grid.cache_clear()
            sections._ray_fan.cache_clear()
            assert self._bits(*run) == bits, run

    def test_the_cache_stays_within_its_bound(self):
        # more distinct n than the caches hold, the first of them large
        for n in (10**5, 200, 3, 7, 11, 13):
            sample_deviatoric(self.CRIT, 0.4, n)
            sample_biaxial(self.CRIT, min(n, 1000))
        for cached in (sections._sector_grid, sections._ray_fan):
            info = cached.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize
        assert sample_deviatoric(self.CRIT, 0.4, 200).samples.shape == (6 * 199, 2)


class TestSerialization:
    def test_csv_layout_and_determinism(self):
        curve = sample_meridian(CAM_CLAY.criterion(), theta=0.0, n=5)
        text = curve_to_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0].startswith("# {")
        assert lines[1] == "p,q"
        assert len(lines) == 2 + 5
        again = curve_to_csv(sample_meridian(CAM_CLAY.criterion(), theta=0.0, n=5))
        assert text == again

    def test_csv_floats_round_trip(self):
        curve = sample_meridian(CAM_CLAY.criterion(), theta=0.0, n=7)
        text = curve_to_csv(curve)
        rows = [line.split(",") for line in text.strip().split("\n")[2:]]
        parsed = np.array([[float(a), float(b)] for a, b in rows])
        np.testing.assert_array_equal(parsed, curve.samples)

    def test_svg_well_formed(self):
        curve = sample_deviatoric(CAM_CLAY.criterion(), at_p=0.5, n=24)
        svg = curve_to_svg(curve)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "viewBox" in root.attrib
        paths = [el for el in root.iter() if el.tag.endswith("path")]
        assert len(paths) == 1
        assert paths[0].attrib["d"].startswith("M ")
        assert paths[0].attrib["d"].endswith(" Z")
        assert "http" not in paths[0].attrib["d"]

    @pytest.mark.parametrize("samples", [np.full((4, 2), np.nan), [[np.inf, 0.0], [0.0, np.nan]], np.empty((0, 2))])
    def test_svg_of_a_curve_with_no_finite_sample_is_refused(self, samples):
        curve = sample_deviatoric(CAM_CLAY.criterion(), at_p=0.5, n=4)
        empty = sections.SectionCurve(curve.kind, np.array(samples, dtype=float), curve.xlabel, curve.ylabel, ())
        with pytest.raises(EmptySlice) as info:
            curve_to_svg(empty)
        assert str(info.value) == "the deviatoric curve has no finite sample to draw"


class TestPolygonHelper:
    def test_square_is_convex(self):
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        assert polygon_is_convex(square)
        assert polygon_is_convex(square[::-1])

    def test_dented_polygon_is_not(self):
        dented = np.array([[0, 0], [1, 0], [0.5, 0.2], [0.5, 1]], dtype=float)
        assert not polygon_is_convex(dented)


class TestNormalizedResidual:
    def test_linear_meridian_floor(self):
        # near the cone's apex on the hydrostatic axis q = 0 and |f| is
        # small, so the floor 0.01 Gamma (|p| + c) sets the scale
        crit = Criterion(meridian=LinearMeridian(Gamma=1.5, c=1.0), shape=CosineLode(1.0, 0.0))
        stress = (0.999, 0.999, 0.999)
        p = -0.999
        f = -1.5 * (p + 1.0)
        expected = abs(f) / (0.01 * 1.5 * (abs(p) + 1.0))
        assert normalized_residual(crit, stress) == pytest.approx(expected, rel=1e-12)
        assert expected < 0.1  # |f| as the divisor would give 1

    def test_outside_cap_is_infinite(self):
        crit = CAM_CLAY.criterion()
        assert normalized_residual(crit, (-2.0, -2.0, -2.0)) == math.inf
        assert normalized_residual(crit, (-2.0, -1.0, -3.0)) == math.inf


def test_a_bracket_past_the_stress_range_is_refused_as_yield_value_refuses_it():
    crit = Criterion(CapMeridian(M=0.8, pc=1e101, c=0.0, m=2.0, alpha=1.0), CosineLode(1.0, 0.3))
    with pytest.raises(DomainError, match="stress components must be finite and at most"):
        sample_biaxial(crit, 8)
