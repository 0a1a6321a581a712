import math

import numpy as np
import pytest

from yieldcrit import (
    CoulombMohr,
    DomainError,
    DruckerPrager,
    ModifiedCamClay,
    ModifiedTresca,
    ShapeMismatch,
    Tresca,
    ValidationError,
    VonMises,
    bp_to_deshpande_fleck,
    certify,
    coulomb_mohr_generalized,
    deshpande_fleck_to_bp,
    gurson_equivalent,
    gurson_meridian_q,
    gurson_yield,
    newman_invariants,
    newman_strength,
    principal_from_invariants,
    realize,
    surface_q,
    yield_value,
)

PI3 = math.pi / 3.0
HEXAGON = "gamma -> 1 realized as 1-1e-9 (piecewise-linear limit)"
CORNER = "alpha = 0 realized as 1e-12 (corner limit)"

ALL_CRITERIA = [
    VonMises(ft=2.0),
    DruckerPrager(fc=3.0, r=2.5),
    Tresca(ft=1.5),
    ModifiedTresca(fc=2.0, r=1.8),
    CoulombMohr(fc=2.5, r=4.0),
    ModifiedCamClay(M=0.9, pc=1.7),
]


def uniaxial_strength(crit, tension: bool) -> float:
    """Magnitude of the uniaxial intercept, found by bisection on F."""
    sign = 1.0 if tension else -1.0

    def F(t):
        return yield_value((sign * t, 0.0, 0.0), crit)

    assert F(0.0) < 0.0
    hi = 1e-6
    for _ in range(200):
        if F(hi) > 0.0:
            break
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if F(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return lo


class TestRealize:
    def test_cam_clay_exact(self):
        real = realize(ModifiedCamClay(M=0.9, pc=1.7))
        p = real.params
        assert (p.m, p.alpha, p.c, p.beta, p.gamma) == (2.0, 1.0, 0.0, 1.0, 0.0)
        assert (p.M, p.pc) == (0.9, 1.7)
        assert real.warnings == ()

    def test_von_mises_band(self):
        ft = 2.0
        crit = realize(VonMises(ft=ft), scale_exponent=6).criterion()
        for p in np.linspace(-10 * ft, 10 * ft, 41):
            for th in np.linspace(0.0, PI3, 13):
                q = surface_q(float(p), float(th), crit)
                assert abs(q - ft) <= 1e-5 * ft

    def test_coulomb_mohr_beta_value(self):
        real = realize(CoulombMohr(fc=1.0, r=4.0))
        # (6/pi) atan(sqrt(3)/9), evaluated independently
        assert real.params.beta == pytest.approx(0.3631131549710302, abs=1e-12)

    @pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=lambda c: type(c).__name__)
    def test_realizations_certify(self, criterion):
        real = realize(criterion)
        assert certify(real.criterion()).admissible

    @pytest.mark.parametrize("criterion", ALL_CRITERIA[:5], ids=lambda c: type(c).__name__)
    def test_uniaxial_strengths(self, criterion):
        if isinstance(criterion, (VonMises, Tresca)):
            ft = criterion.ft
            fc = criterion.ft
        else:
            fc = criterion.fc
            ft = fc / criterion.r
        errs = []
        for k in (4, 6):
            crit = realize(criterion, scale_exponent=k).criterion()
            et = abs(uniaxial_strength(crit, tension=True) - ft) / ft
            ec = abs(uniaxial_strength(crit, tension=False) - fc) / fc
            assert max(et, ec) <= 10.0 ** (2 - k)
            errs.append(max(et, ec))
        # the finite-surrogate error shrinks as the exponent grows
        assert errs[1] < max(errs[0], 1e-12)

    @pytest.mark.parametrize("k", [3, 4, 6, 9, 12])
    @pytest.mark.parametrize(
        "realization, ft, fc",
        [
            (lambda k: realize(VonMises(ft=2.0), scale_exponent=k), 2.0, 2.0),
            (lambda k: realize(DruckerPrager(fc=3.0, r=2.5), scale_exponent=k), 1.2, 3.0),
            (lambda k: realize(Tresca(ft=1.5), scale_exponent=k), 1.5, 1.5),
            (lambda k: realize(ModifiedTresca(fc=2.0, r=1.8), scale_exponent=k), 2.0 / 1.8, 2.0),
            (lambda k: realize(CoulombMohr(fc=2.5, r=4.0), scale_exponent=k), 0.625, 2.5),
            (lambda k: coulomb_mohr_generalized(2.0, 3.0, 0.2, scale_exponent=k), 2.0 / 3.0, 2.0),
            (lambda k: coulomb_mohr_generalized(2.0, 3.0, 1.5, scale_exponent=k), 2.0 / 3.0, 2.0),
        ],
        ids=["von-mises", "drucker-prager", "tresca", "modified-tresca", "coulomb-mohr",
             "coulomb-mohr-generalized-0.2", "coulomb-mohr-generalized-1.5"],
    )
    def test_strength_error_is_of_order_ten_to_minus_k(self, realization, ft, fc, k):
        crit = realization(k).criterion()
        et = abs(uniaxial_strength(crit, tension=True) - ft) / ft
        ec = abs(uniaxial_strength(crit, tension=False) - fc) / fc
        assert max(et, ec) <= 10.0 ** (1 - k)

    @pytest.mark.parametrize(
        "criterion, warnings",
        [
            (VonMises(ft=2.0), ()),
            (ModifiedCamClay(M=0.9, pc=1.7), ()),
            (Tresca(ft=2.0), (HEXAGON,)),
            (DruckerPrager(fc=2.0, r=3.0), (CORNER,)),
            (ModifiedTresca(fc=2.0, r=3.0), (HEXAGON, CORNER)),
            (CoulombMohr(fc=2.0, r=3.0), (HEXAGON, CORNER)),
            (DruckerPrager(fc=2.0, r=1.0), ("r=1: Drucker-Prager reduces to von Mises",)),
            (ModifiedTresca(fc=2.0, r=1.0), ("r=1: ModifiedTresca reduces to Tresca", HEXAGON)),
            (CoulombMohr(fc=2.0, r=1.0), ("r=1: CoulombMohr reduces to Tresca", HEXAGON)),
        ],
        ids=["von-mises", "cam-clay", "tresca", "drucker-prager", "modified-tresca",
             "coulomb-mohr", "drucker-prager-r1", "modified-tresca-r1", "coulomb-mohr-r1"],
    )
    def test_warnings_name_each_substitution_in_order(self, criterion, warnings):
        assert realize(criterion).warnings == warnings

    def test_drucker_prager_r1_reduces_to_von_mises(self):
        real = realize(DruckerPrager(fc=2.0, r=1.0))
        vm = realize(VonMises(ft=2.0))
        assert real.params == vm.params
        assert any("von Mises" in w for w in real.warnings)

    def test_coulomb_mohr_r1_reduces_to_tresca(self):
        real = realize(CoulombMohr(fc=2.0, r=1.0))
        tr = realize(Tresca(ft=2.0))
        assert real.params == tr.params
        assert any("Tresca" in w for w in real.warnings)

    def test_tresca_hexagon_ratio(self):
        real = realize(Tresca(ft=1.0))
        shape = real.criterion().shape
        ratio = float(shape.g(0.0) / shape.g(math.pi / 6.0))
        assert ratio == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-4)

    def test_rankine_and_upper_convexity_ratios(self):
        from yieldcrit import CosineLode

        g_lo = CosineLode(beta=0.0, gamma=1.0 - 1e-9)
        assert float(g_lo.g(PI3) / g_lo.g(0.0)) == pytest.approx(2.0, abs=1e-4)
        g_hi = CosineLode(beta=2.0, gamma=1.0 - 1e-9)
        assert float(g_hi.g(0.0) / g_hi.g(PI3)) == pytest.approx(2.0, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValidationError):
            realize(VonMises(ft=1.0), scale_exponent=2)
        with pytest.raises(DomainError):
            DruckerPrager(fc=1.0, r=0.8)
        with pytest.raises(DomainError):
            VonMises(ft=-1.0)


class TestCoulombMohrGeneralized:
    def test_reduces_to_table_realization(self):
        r, fc = 4.0, 2.0
        beta = (6.0 / math.pi) * math.atan(math.sqrt(3.0) / (2.0 * r + 1.0))
        gen = coulomb_mohr_generalized(fc, r, beta)
        ref = realize(CoulombMohr(fc=fc, r=r))
        for name in ("M", "pc", "c", "m", "alpha", "beta", "gamma"):
            assert getattr(gen.params, name) == pytest.approx(
                getattr(ref.params, name), rel=1e-12
            )

    def test_uniaxial_checks(self):
        fc, r = 2.0, 3.0
        beta = (6.0 / math.pi) * math.atan(math.sqrt(3.0) / (2.0 * r + 1.0))
        crit = coulomb_mohr_generalized(fc, r, beta).criterion()
        ft = fc / r
        sig_t = (ft, 0.0, 0.0)
        sig_c = (-fc, 0.0, 0.0)
        # F itself is dimensionless-ish here; check the surface radius
        assert abs(uniaxial_strength(crit, tension=True) - ft) <= 1e-4 * fc
        assert abs(uniaxial_strength(crit, tension=False) - fc) <= 1e-4 * fc
        assert abs(yield_value(sig_t, crit)) <= 1e-3 * fc
        assert abs(yield_value(sig_c, crit)) <= 1e-3 * fc

    def test_a_beta_outside_the_convex_interval_is_a_domain_error(self):
        # a ValidationError that pointed to YieldParams.unchecked, which the caller never called
        with pytest.raises(DomainError) as info:
            coulomb_mohr_generalized(2.0, 3.0, 2.5)
        assert type(info.value) is DomainError
        assert str(info.value) == "beta=2.5 outside the convex interval [-1.68754e-14, 2] for gamma=1"

    def test_denominator_sign_error(self):
        # beta = -2 turns the c denominator negative at r = 1
        with pytest.raises(DomainError):
            coulomb_mohr_generalized(1.0, 1.0, -2.0)


class TestDeshpandeFleck:
    def test_forward_example(self):
        params = deshpande_fleck_to_bp(Y=1.0, alpha_df=0.5)
        assert params.M == 1.0
        assert params.pc == pytest.approx(2.0 * math.sqrt(1.0 + 1.0 / 36.0), rel=1e-15)
        assert params.c == params.pc
        assert (params.m, params.alpha, params.beta, params.gamma) == (2.0, 1.0, 1.0, 0.0)

    def test_round_trip(self, rng):
        for _ in range(100):
            Y = float(rng.uniform(0.1, 10.0))
            a = float(rng.uniform(0.05, 3.0))
            params = deshpande_fleck_to_bp(Y, a)
            Y2, a2 = bp_to_deshpande_fleck(params.M, params.pc, params.c)
            assert Y2 == pytest.approx(Y, rel=1e-12)
            assert a2 == pytest.approx(a, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            bp_to_deshpande_fleck(1.0, 2.0, 1.0)

    def test_foam_limit_warning(self):
        with pytest.warns(UserWarning):
            deshpande_fleck_to_bp(Y=1.0, alpha_df=1e-7)


class TestGurson:
    def test_reference_porosity(self):
        params = gurson_equivalent(0.3, 1.0)
        assert params.pc == pytest.approx((2.0 / 3.0) * math.log(20.0 / 9.0), rel=1e-14)
        assert params.pc == pytest.approx(0.532, abs=5e-4)
        assert params.c == params.pc

    @pytest.mark.parametrize("f", [0.01, 0.1, 0.3, 0.6])
    def test_hydrostatic_intercepts(self, f):
        params = gurson_equivalent(f, 1.0)
        for sign in (1.0, -1.0):
            sig = principal_from_invariants(sign * params.pc, 0.0, 0.0)
            assert abs(gurson_yield(sig, f, 1.0)) <= 1e-10
        # the reference surface closes at the same intercept (evaluated a
        # hair inside: at pc itself the radicand is a roundoff-level zero)
        q_near = gurson_meridian_q(params.pc * (1.0 - 1e-10), f, 1.0)
        assert q_near == pytest.approx(0.0, abs=1e-4 * params.pc)

    def test_zero_porosity_is_von_mises(self):
        sig = principal_from_invariants(0.7, 1.0, 0.2)
        assert gurson_yield(sig, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)
        sig2 = principal_from_invariants(-1.3, 0.5, 0.1)
        assert gurson_yield(sig2, 0.0, 1.0) == pytest.approx(0.25 - 1.0, abs=1e-12)

    def test_packing_limit(self):
        # f -> 1/q1 with q3 = q1^2 sends the radicand (1 - q1 f)^2 and the
        # cap size pc to zero at the same rate, so M tends to the finite
        # value 3 sqrt(f q1) while the surface itself collapses
        fs = (0.5, 0.6, 0.65, 0.666)
        params = [gurson_equivalent(f, 1.0) for f in fs]
        pcs = [p.pc for p in params]
        assert all(a > b for a, b in zip(pcs, pcs[1:]))
        assert pcs[-1] < 1e-3
        assert params[-1].M == pytest.approx(3.0 * math.sqrt(0.666 * 1.5), abs=1e-3)
        with pytest.raises(DomainError):
            gurson_equivalent(2.0 / 3.0, 1.0)  # radicand exactly zero

    def test_acosh_domain_error(self):
        with pytest.raises(DomainError):
            gurson_equivalent(0.5, 1.0, q1=1.5, q2=1.0, q3=0.0)

    def test_agreement_improves_with_porosity(self):
        def gap(f):
            params = gurson_equivalent(f, 1.0)
            crit = params.criterion()
            ps = np.linspace(-params.pc * 0.999, params.pc * 0.999, 201)
            qb = np.array([surface_q(float(p), 0.0, crit) for p in ps])
            qg = gurson_meridian_q(ps, f, 1.0)
            return float(np.nanmax(np.abs(qb - qg)))

        assert gap(0.6) < gap(0.01)


class TestNewman:
    def test_zero_confinement(self):
        assert newman_strength(0.0, 2.0) == 2.0

    def test_reference_point(self):
        assert newman_strength(1.0, 1.0) == pytest.approx(4.7, rel=1e-15)

    def test_power_growth(self):
        fc = 1.5
        assert newman_strength(2.0 * fc, fc) == pytest.approx(
            fc * (1.0 + 3.7 * 2.0**0.86), rel=1e-15
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            newman_strength(-0.1, 1.0)
        with pytest.raises(DomainError):
            newman_strength(0.0, 0.0)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "call, name, bad",
    [
        (lambda: newman_strength(NAN, 30.0), "sigma3", NAN),
        (lambda: newman_strength(1.0, NAN), "fc", NAN),
        (lambda: newman_invariants(1.0, INF), "fc", INF),
        (lambda: VonMises(ft=NAN), "ft", NAN),
        (lambda: Tresca(ft=INF), "ft", INF),
        (lambda: DruckerPrager(fc=INF, r=2.0), "fc", INF),
        (lambda: ModifiedTresca(fc=1.0, r=NAN), "r", NAN),
        (lambda: CoulombMohr(fc=-INF, r=2.0), "fc", -INF),
        (lambda: ModifiedCamClay(M=NAN, pc=1.0), "M", NAN),
        (lambda: ModifiedCamClay(M=1.0, pc=INF), "pc", INF),
        (lambda: gurson_equivalent(0.1, NAN), "sigma_m", NAN),
        (lambda: gurson_equivalent(0.1, 1.0, q2=INF), "q2", INF),
        (lambda: gurson_yield((0.0, 0.0, 0.0), 0.1, NAN), "sigma_m", NAN),
        (lambda: gurson_yield((0.0, 0.0, 0.0), NAN, 1.0), "f_void", NAN),
        (lambda: gurson_meridian_q(0.0, 0.1, NAN), "sigma_m", NAN),
        (lambda: gurson_meridian_q([0.0, 0.1], 0.1, 1.0, q1=NAN), "q1", NAN),
        (lambda: bp_to_deshpande_fleck(NAN, 1.0, 1.0), "M", NAN),
        (lambda: bp_to_deshpande_fleck(1.0, 1.0, INF), "c", INF),
        (lambda: deshpande_fleck_to_bp(NAN, 0.5), "Y", NAN),
        (lambda: deshpande_fleck_to_bp(1.0, INF), "alpha_df", INF),
        (lambda: realize(VonMises(ft=1.0), scale_exponent=NAN), "scale_exponent", NAN),
        (lambda: realize(CoulombMohr(fc=1.0, r=2.0), scale_exponent=INF), "scale_exponent", INF),
        (lambda: coulomb_mohr_generalized(1.0, 2.0, NAN), "beta", NAN),
        (lambda: coulomb_mohr_generalized(NAN, 2.0, 0.5), "fc", NAN),
    ],
)
def test_non_finite_input_is_a_validation_error(call, name, bad):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == f"{name} must be finite, got {bad}"


@pytest.mark.parametrize("sigma_m", [-1.0, 0.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda s: gurson_meridian_q([0.5, 1.0], 0.1, s),
        lambda s: gurson_meridian_q(0.5, 0.1, s),
        lambda s: gurson_equivalent(0.1, s),
        lambda s: gurson_yield((0.0, 0.0, 0.0), 0.1, s),
    ],
    ids=["meridian-q-array", "meridian-q-scalar", "equivalent", "yield"],
)
def test_gurson_refuses_a_nonpositive_flow_stress(call, sigma_m):
    with pytest.raises(DomainError) as info:
        call(sigma_m)
    assert str(info.value) == f"matrix flow stress must be positive, got {sigma_m}"


def test_realize_refuses_an_unknown_criterion():
    with pytest.raises(DomainError, match="unknown classical criterion"):
        realize("von-mises")


@pytest.mark.parametrize(
    "realization, last_k",
    [
        (lambda k: realize(VonMises(ft=1.0), scale_exponent=k), 100),
        (lambda k: realize(Tresca(ft=0.5), scale_exponent=k), 100),
        (lambda k: realize(DruckerPrager(fc=2.0, r=3.0), scale_exponent=k), 99),
        (lambda k: realize(CoulombMohr(fc=1.0, r=3.0), scale_exponent=k), 100),
        (lambda k: coulomb_mohr_generalized(3.0, 2.0, 0.5, scale_exponent=k), 99),
    ],
    ids=["von-mises", "tresca", "drucker-prager", "coulomb-mohr", "coulomb-mohr-generalized"],
)
def test_realize_keeps_the_surrogate_pc_within_the_stress_range(realization, last_k):
    # pc = 10^k times the strength: the last k leaves it at most 1e100
    assert realization(last_k).params.pc <= 1e100
    for k in (last_k + 1, 300, 400):
        with pytest.raises(DomainError) as info:
            realization(k)
        assert str(info.value) == f"scale_exponent={k} puts the surrogate pc above 1e+100"


@pytest.mark.parametrize(
    "realization",
    [
        lambda k: realize(DruckerPrager(fc=1e-70, r=2.0), scale_exponent=k),
        lambda k: realize(CoulombMohr(fc=1e-70, r=3.0), scale_exponent=k),
        lambda k: coulomb_mohr_generalized(1e-70, 2.0, 0.5, scale_exponent=k),
    ],
    ids=["drucker-prager", "coulomb-mohr", "coulomb-mohr-generalized"],
)
def test_a_k_that_puts_the_alpha_surrogate_below_the_normal_floats_is_a_domain_error(
    realization,
):
    # alpha = 10^-2k is subnormal from k = 154 and 0 from k = 162, while
    # pc = 10^k fc stays below 1e100 for fc = 1e-70 up to k = 170; at k = 161
    # the strengths were off by up to 6e-3
    assert realization(153).params.alpha == 1e-306
    for k in (154, 161, 162, 170):
        with pytest.raises(DomainError) as info:
            realization(k)
        assert str(info.value) == f"scale_exponent={k} puts the surrogate alpha below 2.22507e-308"


@pytest.mark.parametrize(
    "realization",
    [
        lambda r, k: realize(DruckerPrager(fc=1e-70, r=r), scale_exponent=k),
        lambda r, k: realize(CoulombMohr(fc=1e-70, r=r), scale_exponent=k),
        lambda r, k: coulomb_mohr_generalized(1e-70, r, 0.5, scale_exponent=k),
    ],
    ids=["drucker-prager", "coulomb-mohr", "coulomb-mohr-generalized"],
)
@pytest.mark.parametrize("r, last_k", [(1e4, 149), (100.0, 151)])
def test_a_k_that_puts_the_radicand_at_tension_below_the_normal_floats_is_a_domain_error(
    realization, r, last_k
):
    # Phi at uniaxial tension is about 1 / (3 r 10^k), so the radicand, about
    # 2 Phi^2, is subnormal for a large r while alpha = 10^-2k is not; that
    # costs 2.5e-10 of ft at r = 1e4, k = 153
    fc, ft = 1e-70, 1e-70 / r
    crit = realization(r, last_k).criterion()
    assert surface_q(-ft / 3.0, 0.0, crit) == pytest.approx(ft, rel=1e-15)
    assert surface_q(fc / 3.0, PI3, crit) == pytest.approx(fc, rel=1e-15)
    for k in (last_k + 1, 153):
        with pytest.raises(DomainError) as info:
            realization(r, k)
        assert str(info.value) == f"scale_exponent={k} puts the radicand at tension below 2.22507e-308"


@pytest.mark.parametrize("k", [6.7, 2.5, True, 3.000001, 6.0])
@pytest.mark.parametrize(
    "realization",
    [
        lambda k: realize(VonMises(ft=1.0), scale_exponent=k),
        lambda k: realize(DruckerPrager(fc=2.0, r=3.0), scale_exponent=k),
        lambda k: coulomb_mohr_generalized(2.0, 3.0, 0.5, scale_exponent=k),
    ],
    ids=["von-mises", "drucker-prager", "coulomb-mohr-generalized"],
)
def test_a_scale_exponent_that_is_not_an_integer_is_a_validation_error(realization, k):
    # refused, not truncated to the integer below; a float is not a count, even 6.0
    with pytest.raises(ValidationError) as info:
        realization(k)
    assert str(info.value) == f"scale_exponent must be an integer of at least 3, got {k}"

