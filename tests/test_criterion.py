import functools
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from yieldcrit import (
    CapMeridian,
    CornerCase,
    CosineLode,
    Criterion,
    DegenerateState,
    DomainError,
    GudehusArgyris,
    LinearMeridian,
    PowerLaw,
    ValidationError,
    WillamWarnke,
    YieldParams,
    beta_bound,
    criterion_from_dict,
    deviatoric_curvature,
    deviatoric_frame,
    gradient,
    invariants,
    normal_limits,
    principal_from_invariants,
    surface_q,
    yield_value,
    yield_value_array,
)
from yieldcrit.invariants import FLOAT
from conftest import fd_gradient, random_interior_state, random_params

PI3 = math.pi / 3.0

CAM_CLAY = YieldParams(M=0.75, pc=1.0, c=0.0, m=2.0, alpha=1.0, beta=1.0, gamma=0.0)
SAND = YieldParams(M=0.5, pc=0.961, c=0.0, m=2.6, alpha=0.1, beta=0.0, gamma=0.9999)


class TestMeridian:
    def test_cam_clay_closed_form(self):
        # m=2, alpha=1, c=0 collapses to -M sqrt(p (pc - p))
        assert CAM_CLAY.meridian().f(0.5) == pytest.approx(-0.75 / 2.0, abs=1e-15)
        for p in np.linspace(0.05, 0.95, 7):
            assert CAM_CLAY.meridian().f(p) == pytest.approx(
                -0.75 * math.sqrt(p * (1.0 - p)), rel=1e-14
            )

    def test_zeros_at_apices(self):
        params = YieldParams(M=1.2, pc=2.0, c=0.5, m=3.0, alpha=0.7, beta=1.0, gamma=0.3)
        assert params.meridian().f(-0.5) == 0.0
        assert params.meridian().f(2.0) == 0.0

    def test_infinite_outside_cap(self):
        assert CAM_CLAY.meridian().f(CAM_CLAY.pc + 1.0) == math.inf
        assert CAM_CLAY.meridian().f(-0.1) == math.inf

    def test_nonpositive_inside(self, rng):
        for _ in range(20):
            params = random_params(rng)
            for phi in np.linspace(0.0, 1.0, 33):
                p = phi * (params.pc + params.c) - params.c
                assert params.meridian().f(p) <= 0.0


class TestDeviatoricG:
    def test_circle(self):
        shape = CosineLode(beta=1.0, gamma=0.0)
        for th in np.linspace(0.0, PI3, 9):
            assert shape.g(float(th)) == pytest.approx(1.0, abs=1e-15)

    def test_rankine_limit(self):
        shape = CosineLode(beta=0.0, gamma=1.0 - 1e-9)
        assert shape.g(0.0) == pytest.approx(1.0, abs=1e-4)
        assert shape.g(PI3) == pytest.approx(2.0, abs=1e-4)

    def test_gudehus_argyris_circle(self):
        shape = GudehusArgyris(k=1.0)
        for th in np.linspace(0.0, PI3, 9):
            assert shape.g(float(th)) == pytest.approx(1.0, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            deviatoric_curvature(-0.1, CosineLode(1.0, 0.0))
        with pytest.raises(DomainError):
            deviatoric_curvature(PI3 + 0.1, CosineLode(1.0, 0.0))

    def test_nan_theta_is_a_domain_error(self):
        with pytest.raises(DomainError):
            deviatoric_curvature(math.nan, CosineLode(1.0, 0.0))
        with pytest.raises(DomainError):
            deviatoric_curvature(np.array([0.1, math.nan]), CosineLode(1.0, 0.0))

    def test_positive_for_all_shapes(self, rng):
        shapes = [
            CosineLode(beta=rng.uniform(0, 2), gamma=rng.uniform(0, 0.99)),
            PowerLaw(beta=0.5, n=3.0),
            WillamWarnke(e=0.7),
            GudehusArgyris(k=0.9),
        ]
        th = np.linspace(0.0, PI3, 101)
        for shape in shapes:
            assert np.all(shape.g(th) > 0.0)

    def test_tresca_hexagon_limit(self):
        # gamma -> 1 at beta = 1 approaches g = 1/cos(pi/6 - theta)
        shape = CosineLode(beta=1.0, gamma=1.0 - 1e-9)
        th = np.linspace(0.0, PI3, 501)
        hexagon = 1.0 / np.cos(math.pi / 6.0 - th)
        assert np.max(np.abs(shape.g(th) - hexagon) / hexagon) <= 1e-4
        ratio = float(shape.g(0.0) / shape.g(math.pi / 6.0))
        assert ratio == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-4)

    def test_analytic_derivatives_match_fd(self, rng):
        shapes = [
            CosineLode(beta=1.3, gamma=0.8),
            CosineLode(beta=0.0, gamma=0.5),
            PowerLaw(beta=0.9, n=3.0),
            WillamWarnke(e=0.62),
            GudehusArgyris(k=0.85),
        ]
        h = 1e-5
        for shape in shapes:
            for th in rng.uniform(0.02, PI3 - 0.02, 20):
                d1 = float(shape.dg(th))
                d2 = float(shape.d2g(th))
                fd1 = (float(shape.g(th + h)) - float(shape.g(th - h))) / (2 * h)
                fd2 = (
                    float(shape.g(th + h)) - 2 * float(shape.g(th)) + float(shape.g(th - h))
                ) / h**2
                assert d1 == pytest.approx(fd1, rel=1e-5, abs=1e-7)
                assert d2 == pytest.approx(fd2, rel=1e-3, abs=1e-4)

    def test_smooth_at_sector_ends(self):
        # six-fold symmetry needs dg = 0 at both deviatoric meridians
        for shape in [
            CosineLode(beta=0.7, gamma=0.6),
            PowerLaw(beta=1.0, n=3.0),
            WillamWarnke(e=0.8),
            GudehusArgyris(k=0.9),
        ]:
            assert abs(float(shape.dg(0.0))) <= 1e-12
            assert abs(float(shape.dg(PI3))) <= 1e-9


class TestFormulaBodies:
    """Each record's one formula body, ``_jet``, against central differences
    of its own value, over floats."""

    SHAPES = [CosineLode(1.3, 0.8), PowerLaw(0.9, 3.0), WillamWarnke(0.62), GudehusArgyris(0.85)]
    MERIDIANS = [CapMeridian(M=0.9, pc=12.5, c=1.3, m=2.2, alpha=0.7), LinearMeridian(Gamma=0.8, c=0.4)]

    @staticmethod
    def _field_fd(record, name, value_at, h=1e-6):
        """Central difference of ``value_at(record)`` in the field ``name``."""
        x = getattr(record, name)
        step = h * max(1.0, abs(x))
        up = value_at(replace(record, **{name: x + step}))
        down = value_at(replace(record, **{name: x - step}))
        return (up - down) / (2.0 * step)

    def test_shape_partials_by_field(self, rng):
        for shape in self.SHAPES:
            fields = [n for n in ("beta", "gamma", "n", "e", "k") if hasattr(shape, n)]
            for th in rng.uniform(0.02, PI3 - 0.02, 10):
                jet = shape._jet(FLOAT, float(th), 0, fields)
                assert jet[0] == shape.g(float(th))
                for name in fields:
                    fd = self._field_fd(shape, name, lambda s: s.g(float(th)))
                    assert jet[-1][name] == pytest.approx(fd, rel=1e-6, abs=1e-8), (shape, name, th)

    def test_meridian_derivatives_in_p(self, rng):
        h = 1e-4
        for mer in self.MERIDIANS:
            for s in rng.uniform(0.05, 0.95, 10):
                p = s * mer.scale - mer.c
                jet = mer._jet(mer._place(p, FLOAT), FLOAT, 2)
                assert jet[0] == mer.f(p) and jet[1] == mer.df(p)
                fd1 = (mer.f(p + h) - mer.f(p - h)) / (2.0 * h)
                fd2 = (mer.f(p + h) - 2.0 * mer.f(p) + mer.f(p - h)) / h**2
                assert jet[1] == pytest.approx(fd1, rel=1e-6, abs=1e-9), (mer, p)
                assert jet[2] == pytest.approx(fd2, rel=1e-4, abs=1e-6), (mer, p)

    def test_cap_is_convex_in_p(self, rng):
        # f'' >= 0 on the open cap for every admissible m and alpha
        for _ in range(20):
            mer = random_params(rng).meridian()
            for s in np.linspace(0.01, 0.99, 25):
                assert mer._jet(mer._place(s * mer.scale - mer.c, FLOAT), FLOAT, 2)[2] >= 0.0

    def test_meridian_partials_by_field(self, rng):
        for mer in self.MERIDIANS:
            fields = [n for n in ("M", "pc", "c", "m", "alpha", "Gamma") if hasattr(mer, n)]
            for s in rng.uniform(0.05, 0.95, 10):
                p = s * mer.scale - mer.c
                jet = mer._jet(mer._place(p, FLOAT, fields), FLOAT, 0, fields)
                for name in fields:
                    fd = self._field_fd(mer, name, lambda m: m.f(p))
                    assert jet[-1][name] == pytest.approx(fd, rel=1e-6, abs=1e-8), (mer, name, p)

    def test_only_what_is_asked_for(self):
        for shape in self.SHAPES:
            assert len(shape._jet(FLOAT, 0.3)) == 1
            assert len(shape._jet(FLOAT, 0.3, 2)) == 3
        for mer in self.MERIDIANS:
            at = mer._place(0.5, FLOAT)
            assert len(mer._jet(at, FLOAT)) == 1
            assert len(mer._jet(at, FLOAT, 1)) == 2


class TestReaders:
    """The readers of the formula bodies, the shapes' g, dg and d2g and the
    meridians' f and df, each take a number or an array: a float for a
    number, and an array of the input's shape for an array, whose entries
    match the number path to 1e-12 of the larger of the value and the
    reader's largest magnitude on its domain (the paths are not bit-equal:
    numpy's vector functions round apart from libm's)."""

    READERS = [
        (record, name)
        for record, names in [(shape, ("g", "dg", "d2g")) for shape in TestFormulaBodies.SHAPES]
        + [(mer, ("f", "df")) for mer in TestFormulaBodies.MERIDIANS]
        for name in names
    ]

    @staticmethod
    def _domain(record):
        """The sector for a shape; for a meridian, p from -c + 0.01 scale to -c + 0.99 scale
        (Phi in [0.01, 0.99] on a cap)."""
        if isinstance(record, (CapMeridian, LinearMeridian)):
            return -record.c + 0.01 * record.scale, -record.c + 0.99 * record.scale
        return 0.0, PI3

    @staticmethod
    @functools.cache
    def _largest(record, name):
        lo, hi = TestReaders._domain(record)
        return float(np.abs(getattr(record, name)(np.linspace(lo, hi, 2001))).max())

    @pytest.mark.parametrize("record, name", READERS, ids=[f"{type(r).__name__}.{n}" for r, n in READERS])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_number_gives_a_float_and_an_array_its_shape(self, record, name, data):
        reader = getattr(record, name)
        lo, hi = self._domain(record)
        values = st.floats(lo, hi)
        x = data.draw(values)
        whole = data.draw(st.integers(math.ceil(lo), math.floor(hi)))
        for number in (x, whole):
            assert type(reader(number)) is float, (number, reader(number))
        assert reader(whole) == reader(float(whole))
        size = self._largest(record, name)
        for shape in [(3,), (3, 1), ()]:
            arg = np.array(data.draw(st.lists(values, min_size=3, max_size=3))).reshape(shape) if shape else np.array(x)
            got = reader(arg)
            assert np.shape(got) == arg.shape, (arg, got)
            for entry, value in zip(arg.ravel(), np.ravel(got)):
                want = reader(float(entry))
                assert abs(value - want) <= 1e-12 * max(abs(want), size), (entry, value, want)

    @pytest.mark.parametrize("mer", TestFormulaBodies.MERIDIANS, ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("name", ["f", "df"])
    @pytest.mark.parametrize("p", [math.nan, np.float32(math.nan), np.array(math.nan), [0.2, math.nan], np.full((2, 1), math.nan)])
    def test_a_nan_pressure_is_a_domain_error(self, mer, name, p):
        # LinearMeridian.df(nan) was -0.8, CapMeridian.df([0.2, nan]) NaN at the NaN
        with pytest.raises(DomainError) as info:
            getattr(mer, name)(p)
        assert str(info.value) == "p must be a number, got nan"


class TestYieldValue:
    def test_tension_apex_on_surface(self):
        # dyadic c so that p = -c is exact in floats and Phi lands on 0
        params = YieldParams(M=1.0, pc=2.0, c=0.5, m=2.0, alpha=1.0, beta=1.0, gamma=0.0)
        sig = principal_from_invariants(-0.5, 0.0, 0.0)  # hydrostatic tension apex
        assert yield_value(sig, params.criterion()) == pytest.approx(0.0, abs=1e-14)

    def test_cam_clay_ellipse(self):
        sig = principal_from_invariants(0.5, 0.375, 0.7)
        assert yield_value(sig, CAM_CLAY.criterion()) == pytest.approx(0.0, abs=1e-14)

    def test_linear_meridian_gudehus_argyris_surface(self):
        crit = Criterion(meridian=LinearMeridian(Gamma=1.0, c=0.0), shape=GudehusArgyris(k=0.9))
        for th in np.linspace(0.0, PI3, 7):
            g = crit.shape.g(float(th))
            sig = principal_from_invariants(1.0 / g, 1.0, float(th))
            assert yield_value(sig, crit) == pytest.approx(0.0, abs=1e-13)

    def test_outside_cap_is_inf(self):
        sig = principal_from_invariants(CAM_CLAY.pc * 2.0, 0.3, 0.2)
        assert yield_value(sig, CAM_CLAY.criterion()) == math.inf

    def test_g_underflow_is_inf_as_on_the_array_path(self):
        # g = (1 + 1000 (1 + cos 3 theta))^-1000 underflows to 0 at both states
        crit = Criterion(LinearMeridian(1.0, 0.5), PowerLaw(beta=1000.0, n=0.001))
        for sig in [(-0.5, 0.2, 0.1), (-0.4, -0.4, -0.4)]:
            assert crit.shape.g(invariants(sig).theta) == 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the array path divides by that 0 without a RuntimeWarning
                want = yield_value_array([sig], crit)[0]
            assert yield_value(sig, crit) == want
        assert yield_value((-0.5, 0.2, 0.1), crit) == math.inf
        with pytest.raises(DegenerateState, match="underflows to 0"):
            gradient((-0.5, 0.2, 0.1), crit)

    def test_isotropy(self, rng):
        crit = random_params(rng).criterion()
        for _ in range(50):
            sig = rng.uniform(-1.5, 1.5, 3)
            ref = yield_value(sig, crit)
            for perm in itertools.permutations(sig):
                val = yield_value(perm, crit)
                if math.isinf(ref):
                    assert math.isinf(val)
                else:
                    assert val == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestSurfaceQ:
    def test_cam_clay_apex(self):
        assert surface_q(0.5, 0.0, CAM_CLAY.criterion()) == pytest.approx(0.375, abs=1e-15)

    def test_zero_at_cap_end(self):
        assert surface_q(CAM_CLAY.pc, 0.3, CAM_CLAY.criterion()) == 0.0

    def test_none_outside(self):
        assert surface_q(CAM_CLAY.pc * 1.5, 0.0, CAM_CLAY.criterion()) is None
        assert surface_q(-0.5, 0.0, CAM_CLAY.criterion()) is None

    def test_nan_theta_is_a_domain_error(self):
        with pytest.raises(DomainError, match="theta"):
            surface_q(0.5, math.nan, CAM_CLAY.criterion())

    @pytest.mark.parametrize("theta", [[0.1], np.array([0.1]), np.array([0.1, 0.2])])
    def test_theta_that_is_not_one_number_is_a_domain_error(self, theta):
        # each lies in the sector, so the range check lets it through
        with pytest.raises(DomainError, match="theta must be one number, .*; surface_q_array takes arrays"):
            surface_q(0.5, theta, CAM_CLAY.criterion())

    @pytest.mark.parametrize("theta, message", [
        ("0.1", "theta must be a number or an array of numbers, got '0.1'"),
        (b"0.1", "theta must be a number or an array of numbers, got b'0.1'"),
        (["0.1"], "theta must be a number or an array of numbers, got ['0.1']"),
    ])
    def test_a_numeric_string_theta_is_refused(self, theta, message):
        # numpy would read each as 0.1, which lies in the sector
        with pytest.raises(DomainError) as info:
            surface_q(0.5, theta, CAM_CLAY.criterion())
        assert str(info.value) == message

    def test_nan_pressure_is_a_domain_error(self):
        # not a point on the cap apex (f = 0, q = 0)
        with pytest.raises(DomainError, match="p must be a number"):
            surface_q(math.nan, 0.3, CAM_CLAY.criterion())
        with pytest.raises(DomainError):
            CAM_CLAY.meridian().f(math.nan)
        cone = Criterion(meridian=LinearMeridian(Gamma=1.0, c=0.1), shape=CosineLode(1.0, 0.0))
        with pytest.raises(DomainError, match="p must be a number"):
            surface_q(math.nan, 0.3, cone)

    def test_quadratic_extension_root(self, rng):
        crit = CAM_CLAY.criterion(A=0.8, B=1.2)
        for _ in range(30):
            p = rng.uniform(0.05, 0.95)
            th = rng.uniform(0.0, PI3)
            q = surface_q(p, th, crit)
            assert q >= 0.0
            sig = principal_from_invariants(p, q, th)
            assert yield_value(sig, crit) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("A", [1e-14, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e2])
    def test_root_solves_F_for_every_A(self, A):
        # the textbook root (-B/g + sqrt((B/g)^2 - 4 A f)) / 2A cancels for
        # small A: at A = 1e-14 it gave q = 0.49960036 here, with F = -4.0e-4
        shapes = [CosineLode(1.0, 0.0), CosineLode(0.3, 0.9), PowerLaw(0.5, 3.0), GudehusArgyris(0.8)]
        for shape in shapes:
            crit = Criterion(meridian=CAM_CLAY.meridian(), shape=shape, A=A, B=1.3)
            for p, th in itertools.product((0.01, 0.3, 0.5, 0.97), (0.0, 0.3, PI3)):
                q = surface_q(p, th, crit)
                terms = (A * q * q, crit.B * q / shape.g(th), crit.meridian.f(p))
                assert abs(sum(terms)) <= 1e-12 * max(map(abs, terms)), (shape, p, th)
        # f(0.5) = -1/2 and g = 1, so q = 1 / (1 + sqrt(1 + 2 A))
        crit = YieldParams(M=1, pc=1, c=0, m=2, alpha=1, beta=1, gamma=0).criterion(A=A)
        assert surface_q(0.5, 0.3, crit) == pytest.approx(1.0 / (1.0 + math.sqrt(1.0 + 2.0 * A)), rel=1e-14)

    def test_separable_theta_scaling(self):
        # q(p, theta) / q(p, pi/3) is independent of p for A = 0
        crit = SAND.criterion()
        for th in np.linspace(0.0, PI3, 5):
            ratios = [
                surface_q(p, float(th), crit) / surface_q(p, PI3, crit)
                for p in np.linspace(0.1, 0.8, 5) * SAND.pc
            ]
            assert np.ptp(ratios) <= 1e-12

    def test_surface_function_consistency_grid(self):
        crit = SAND.criterion()
        for phi in np.linspace(0.02, 0.98, 25):
            p = phi * (SAND.pc + SAND.c) - SAND.c
            for th in np.linspace(0.0, PI3, 13):
                q = surface_q(p, float(th), crit)
                F = yield_value(principal_from_invariants(p, q, float(th)), crit)
                fp = SAND.meridian().f(p)
                assert abs(F) <= 1e-10 * (crit.B * q + abs(fp))


class TestGradient:
    def test_meridian_state_has_c_zero(self):
        crit = SAND.criterion()
        sig = principal_from_invariants(0.4, 0.1, 0.0)
        dec = gradient(sig, crit)
        assert dec.c == 0.0
        # tensor lies in span{I, s_tilde}
        s = np.asarray(sig) - np.sum(sig) / 3.0
        s_tilde = math.sqrt(1.5) * s / np.linalg.norm(s) / math.sqrt(1.5)  # unit deviator
        residual = dec.tensor - dec.a * np.ones(3) - np.dot(dec.tensor, s_tilde) * s_tilde
        # the I and s_tilde components reconstruct the tensor
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(dec.tensor)

    def test_matches_finite_differences(self, rng):
        crit = SAND.criterion()
        for _ in range(100):
            sig = random_interior_state(rng, crit)
            dec = gradient(sig, crit)
            fd = fd_gradient(lambda s: yield_value(s, crit), sig)
            assert np.linalg.norm(dec.tensor - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_matches_fd_across_random_parameter_sets(self, rng):
        for _ in range(5):
            crit = random_params(rng).criterion()
            for _ in range(20):
                sig = random_interior_state(rng, crit)
                dec = gradient(sig, crit)
                fd = fd_gradient(lambda s: yield_value(s, crit), sig)
                assert np.linalg.norm(dec.tensor - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_quadratic_term_folded_into_b(self, rng):
        crit = CAM_CLAY.criterion(A=0.6, B=1.1)
        for _ in range(20):
            sig = random_interior_state(rng, crit)
            dec = gradient(sig, crit)
            fd = fd_gradient(lambda s: yield_value(s, crit), sig)
            assert np.linalg.norm(dec.tensor - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_other_shapes_and_linear_meridian(self, rng):
        shapes = [PowerLaw(beta=0.9, n=3.0), WillamWarnke(e=0.7), GudehusArgyris(k=0.85)]
        for shape in shapes:
            crit = Criterion(meridian=LinearMeridian(Gamma=0.8, c=0.2), shape=shape)
            for _ in range(15):
                p = rng.uniform(0.2, 2.0)
                th = rng.uniform(0.05, PI3 - 0.05)
                q = 0.5 * surface_q(p, th, crit)
                sig = principal_from_invariants(p, q, th)
                dec = gradient(sig, crit)
                fd = fd_gradient(lambda s: yield_value(s, crit), sig)
                assert np.linalg.norm(dec.tensor - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_cam_clay_apex_is_purely_deviatoric(self):
        # h' = 1 - 2 Phi vanishes at the ellipse apex, so a = 0
        crit = CAM_CLAY.criterion()
        sig = principal_from_invariants(0.5, 0.2, 0.4)
        dec = gradient(sig, crit)
        assert dec.a == pytest.approx(0.0, abs=1e-14)

    def test_unit_normal_is_normalized(self, rng):
        crit = random_params(rng).criterion()
        sig = random_interior_state(rng, crit)
        dec = gradient(sig, crit)
        assert np.linalg.norm(dec.unit_normal) == pytest.approx(1.0, abs=1e-12)
        norm = math.sqrt(3 * dec.a**2 + dec.b**2 + dec.c**2)
        np.testing.assert_allclose(dec.unit_normal, dec.tensor / norm, atol=1e-14)

    def test_degenerate_states_raise(self):
        crit = CAM_CLAY.criterion()
        with pytest.raises(DegenerateState):
            gradient((-0.3, -0.3, -0.3), crit)  # hydrostatic
        apex = principal_from_invariants(1.0 - 1e-12, 1e-13, 0.0)
        with pytest.raises(DegenerateState):
            gradient(apex, crit)


# a + b s_tilde + c s_tilde_perp for each shape on both meridians, A > 0 on one
FRAME_CRITERIA = [
    SAND.criterion(),
    CAM_CLAY.criterion(A=0.6, B=1.1),
    Criterion(meridian=LinearMeridian(Gamma=0.8, c=0.2), shape=PowerLaw(beta=0.9, n=3.0)),
    Criterion(meridian=LinearMeridian(Gamma=0.8, c=0.2), shape=WillamWarnke(e=0.7)),
    Criterion(meridian=CapMeridian(1.0, 2.0, 0.5, 3.0, 0.7), shape=GudehusArgyris(k=0.85)),
]
_COMPONENT = st.floats(-2.0, 0.5)


@given(
    st.sampled_from(FRAME_CRITERIA),
    st.one_of(
        st.tuples(_COMPONENT, _COMPONENT, _COMPONENT),
        # (x, y, y) lies on theta = 0 for x > y and on theta = pi/3 for x < y
        st.tuples(_COMPONENT, _COMPONENT).map(lambda xy: (xy[0], xy[1], xy[1])),
    ),
)
@example(FRAME_CRITERIA[0], (-0.2, -0.5, -0.5))
@example(FRAME_CRITERIA[0], (-0.2, -0.2, -0.6))
@example(FRAME_CRITERIA[2], tuple(principal_from_invariants(0.4, 0.3, 0.0)))
@example(FRAME_CRITERIA[2], tuple(principal_from_invariants(0.4, 0.3, PI3)))
@settings(max_examples=300, deadline=None)
def test_gradient_is_built_on_the_deviatoric_frame(crit, sig):
    # gradient and deviatoric_frame read one frame, so the tensor is
    # a I + b s_tilde + c s_tilde_perp of the public frame, bit for bit
    try:
        dec = gradient(sig, crit)
    except DegenerateState:
        assume(False)
    frame = deviatoric_frame(sig)
    perp = frame.s_tilde_perp if frame.defined else np.zeros(3)
    assert np.array_equal(dec.tensor, dec.a + dec.b * frame.s_tilde + dec.c * perp)
    if not frame.defined:
        assert dec.c == 0.0


class TestNormalLimits:
    def test_apex_normals(self):
        e = np.ones(3) / math.sqrt(3.0)
        np.testing.assert_allclose(normal_limits("tension_apex", CAM_CLAY), e)
        np.testing.assert_allclose(normal_limits("compression_apex", CAM_CLAY), -e)

    def test_corner_case(self):
        bad = YieldParams.unchecked(M=1, pc=1, c=0, m=2, alpha=0.0, beta=1, gamma=0)
        with pytest.raises(CornerCase):
            normal_limits("tension_apex", bad)
        bad2 = YieldParams.unchecked(M=1, pc=1, c=0, m=2, alpha=2.0, beta=1, gamma=0)
        with pytest.raises(CornerCase):
            normal_limits("compression_apex", bad2)

    def test_unknown_which(self):
        with pytest.raises(DomainError):
            normal_limits("sideways", CAM_CLAY)

    def _normal_at_phi(self, params, phi, theta=0.4):
        crit = params.criterion()
        p = phi * (params.pc + params.c) - params.c
        q = 0.5 * surface_q(p, theta, crit)
        dec = gradient(principal_from_invariants(p, q, theta), crit)
        return dec.unit_normal

    def test_numeric_convergence_to_apex_normals(self):
        params = YieldParams(M=0.9, pc=1.3, c=0.2, m=2.5, alpha=0.8, beta=0.7, gamma=0.4)
        e = np.ones(3) / math.sqrt(3.0)
        sims = [float(np.dot(self._normal_at_phi(params, d), e)) for d in (1e-4, 1e-6, 1e-8)]
        assert sims[0] < sims[1] < sims[2]
        assert sims[2] >= 1.0 - 1e-4
        sims_c = [float(np.dot(self._normal_at_phi(params, 1 - d), -e)) for d in (1e-4, 1e-6, 1e-8)]
        assert sims_c[0] < sims_c[1] < sims_c[2]
        assert sims_c[2] >= 1.0 - 1e-4

    def test_corner_breaks_convergence(self):
        # alpha at the corner limit: the normal at Phi = 1e-8 stays far
        # from the hydrostatic direction
        params = YieldParams(M=0.9, pc=1.3, c=0.2, m=2.5, alpha=1e-8, beta=0.7, gamma=0.4)
        e = np.ones(3) / math.sqrt(3.0)
        sim = float(np.dot(self._normal_at_phi(params, 1e-8), e))
        assert sim < 1.0 - 1e-2


class TestSmoothnessLimits:
    def test_unit_normal_converges_on_deviatoric_meridians(self, rng):
        # Eq.-(18)-style limit: near theta = 0 and pi/3 the unit normal
        # approaches the span{I, s_tilde} expression
        for _ in range(10):
            gamma = rng.uniform(0.0, 0.9)
            params = YieldParams(
                M=rng.uniform(0.5, 1.5),
                pc=1.0,
                c=rng.uniform(0.0, 0.3),
                m=rng.uniform(1.8, 4.0),
                alpha=rng.uniform(0.3, 1.7),
                beta=rng.uniform(0.1, 1.9),
                gamma=gamma,
            )
            crit = params.criterion()
            for th_near, th_exact in ((1e-5, 0.0), (PI3 - 1e-5, PI3)):
                p = 0.4 * params.pc
                q = 0.5 * surface_q(p, th_exact, crit)
                dec_near = gradient(principal_from_invariants(p, q, th_near), crit)
                dec_limit = gradient(principal_from_invariants(p, q, th_exact), crit)
                # the reconstructed theta sits within ~1e-9 of the meridian,
                # so c is tiny rather than exactly zero
                assert abs(dec_limit.c) <= 1e-6 * abs(dec_limit.b)
                cos_sim = float(
                    np.dot(dec_near.unit_normal, dec_limit.unit_normal)
                )
                assert cos_sim >= 1.0 - 1e-6


class TestYieldParams:
    def test_range_validation(self):
        with pytest.raises(ValidationError):
            YieldParams(M=-1, pc=1, c=0, m=2, alpha=1, beta=1, gamma=0)
        with pytest.raises(ValidationError):
            YieldParams(M=1, pc=0, c=0, m=2, alpha=1, beta=1, gamma=0)
        with pytest.raises(ValidationError):
            YieldParams(M=1, pc=1, c=-0.1, m=2, alpha=1, beta=1, gamma=0)
        with pytest.raises(ValidationError):
            YieldParams(M=1, pc=1, c=0, m=1.0, alpha=1, beta=1, gamma=0)
        with pytest.raises(ValidationError):
            YieldParams(M=1, pc=1, c=0, m=2, alpha=2.0, beta=1, gamma=0)
        with pytest.raises(ValidationError):
            YieldParams(M=1, pc=1, c=0, m=2, alpha=1, beta=1, gamma=1.0)

    def test_beta_interval_enforced(self):
        # bound(0.5) = 7/3, so beta = 2.5 is out while beta = 2.3 is in
        with pytest.raises(ValidationError):
            YieldParams(M=1, pc=1, c=0, m=2, alpha=1, beta=2.5, gamma=0.5)
        YieldParams(M=1, pc=1, c=0, m=2, alpha=1, beta=2.3, gamma=0.5)
        YieldParams(M=1, pc=1, c=0, m=2, alpha=1, beta=3.9, gamma=0.0)

    def test_g_positive_at_the_sector_ends_enforced(self):
        # beta_bound(0) rounds to 4.000000000000001, inside the interval's
        # tolerance band, but there g(0) is about -1.2e15
        native = dict(M=1, pc=1, c=0, m=2, alpha=1, beta=beta_bound(0.0), gamma=0.0)
        for build in (lambda: YieldParams(**native), lambda: criterion_from_dict(native)):
            with pytest.raises(ValidationError, match="g\\(theta\\) is not positive"):
                build()
        assert YieldParams.unchecked(**native).beta == beta_bound(0.0)
        # one gate words the interval for both, YieldParams adding its hint
        with pytest.raises(ValidationError) as err:
            YieldParams(**dict(native, beta=4.5))
        assert str(err.value) == (
            "beta=4.5 outside the convex interval for gamma=0.0; "
            "use YieldParams.unchecked to bypass"
        )
        with pytest.raises(ValidationError) as err:
            criterion_from_dict(dict(native, beta=4.5, gamma=0.5))
        assert str(err.value) == "beta=4.5 outside the convex interval for gamma=0.5"

    def test_unchecked_bypasses(self):
        p = YieldParams.unchecked(M=1, pc=1, c=0, m=2, alpha=1, beta=4.5, gamma=0.5)
        assert p.beta == 4.5

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        native = dict(M=1.0, pc=1.0, c=0.1, m=2.0, alpha=1.0, beta=1.0, gamma=0.0)
        for name in native:
            with pytest.raises(ValidationError, match="finite"):
                YieldParams(**dict(native, **{name: bad}))
        builders = [
            lambda v: LinearMeridian(Gamma=v, c=0.0),
            lambda v: LinearMeridian(Gamma=1.0, c=v),
            lambda v: CosineLode(beta=v, gamma=0.0),
            lambda v: PowerLaw(beta=v, n=2.0),
            lambda v: PowerLaw(beta=0.5, n=v),
            lambda v: WillamWarnke(e=v),
            lambda v: GudehusArgyris(k=v),
            lambda v: Criterion(meridian=LinearMeridian(1.0, 0.0), shape=CosineLode(1.0, 0.0), A=v),
            lambda v: Criterion(meridian=LinearMeridian(1.0, 0.0), shape=CosineLode(1.0, 0.0), B=v),
        ]
        for build in builders:
            with pytest.raises(ValidationError, match="finite"):
                build(bad)

    def test_limit_mode_substitutions(self):
        p, warnings = YieldParams.limit_mode(M=1, pc=1, c=0, m=2, alpha=0.0, beta=1, gamma=1.0)
        assert p.gamma == 1.0 - 1e-9
        assert p.alpha == 1e-8
        assert len(warnings) == 2

    @pytest.mark.parametrize(
        "alpha, gamma, realized, warnings",
        [
            (1.0, 1.0, (1.0, 1.0 - 1e-9), ("gamma -> 1 realized as 1-1e-9 (piecewise-linear limit)",)),
            (1.0, 1.5, (1.0, 1.0 - 1e-9), ("gamma -> 1 realized as 1-1e-9 (piecewise-linear limit)",)),
            (0.0, 0.5, (1e-8, 0.5), ("alpha = 0 realized as 1e-08 (corner limit)",)),
            (-1.0, 0.5, (1e-8, 0.5), ("alpha = 0 realized as 1e-08 (corner limit)",)),
            # 2 - 1e-8 prints as 2 under :g, so the note names the surrogate's offset
            (2.0, 0.5, (2.0 - 1e-8, 0.5), ("alpha = 2 realized as 2-1e-08 (corner limit)",)),
            (2.5, 0.5, (2.0 - 1e-8, 0.5), ("alpha = 2 realized as 2-1e-08 (corner limit)",)),
            (
                2.0,
                1.0,
                (2.0 - 1e-8, 1.0 - 1e-9),
                (
                    "gamma -> 1 realized as 1-1e-9 (piecewise-linear limit)",
                    "alpha = 2 realized as 2-1e-08 (corner limit)",
                ),
            ),
            (1.0, 0.5, (1.0, 0.5), ()),
        ],
    )
    def test_limit_mode_warnings(self, alpha, gamma, realized, warnings):
        p, got = YieldParams.limit_mode(M=1, pc=1, c=0, m=2, alpha=alpha, beta=1, gamma=gamma)
        assert ((p.alpha, p.gamma), got) == (realized, warnings)

    def test_a_record_keeps_no_meridian_of_its_own(self):
        # meridian() builds, and so checks, the CapMeridian for checked and unchecked records alike
        native = dict(M=1.0, pc=1.0, c=0.1, m=2.0, alpha=1.0, beta=1.0, gamma=0.0)
        checked, unchecked = YieldParams(**native), YieldParams.unchecked(**native)
        assert "_meridian" not in vars(checked)
        assert checked.meridian() == unchecked.meridian() == CapMeridian(1.0, 1.0, 0.1, 2.0, 1.0)
        with pytest.raises(ValidationError, match="m must exceed 1, got 0.5"):
            YieldParams.unchecked(**{**native, "m": 0.5}).meridian()


class TestParameterSerialization:
    def test_native_round_trip(self):
        crit = SAND.criterion(A=0.0, B=1.0)
        d = crit.to_dict()
        assert d["meridian"] == "bp"
        assert set(d) >= {"M", "pc", "c", "m", "alpha", "beta", "gamma", "A", "B"}
        again = criterion_from_dict(d)
        assert again == crit

    def test_all_shapes_round_trip(self):
        mer = LinearMeridian(Gamma=1.2, c=0.3)
        for shape in [
            PowerLaw(beta=0.5, n=3.0),
            WillamWarnke(e=0.66),
            GudehusArgyris(k=0.92),
            CosineLode(beta=0.4, gamma=0.7),
        ]:
            crit = Criterion(meridian=mer, shape=shape, A=0.1, B=2.0)
            assert criterion_from_dict(crit.to_dict()) == crit

    def test_minimal_form(self):
        crit = criterion_from_dict(
            {"M": 0.75, "pc": 1.0, "c": 0.0, "m": 2.0, "alpha": 1.0, "beta": 1.0, "gamma": 0.0}
        )
        assert crit == CAM_CLAY.criterion()

    def test_unchecked_flag(self):
        d = {"M": 1.0, "pc": 1.0, "c": 0.0, "m": 2.0, "alpha": 1.0, "beta": 4.5, "gamma": 0.5}
        with pytest.raises(ValidationError):
            criterion_from_dict(d)
        crit = criterion_from_dict(d, unchecked=True)
        assert crit.shape.beta == 4.5

    def test_missing_key_message(self):
        with pytest.raises(ValidationError):
            criterion_from_dict({"M": 1.0})
