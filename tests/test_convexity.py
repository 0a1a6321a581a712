import json
import math

import numpy as np
import pytest

from yieldcrit import (
    CosineLode,
    Criterion,
    DegenerateState,
    DomainError,
    GudehusArgyris,
    LinearMeridian,
    PowerLaw,
    WillamWarnke,
    YieldParams,
    beta_bound,
    certify,
    deviatoric_curvature,
    hessian_qg,
    nonconvex_demo,
    powerlaw_beta_max,
    yield_value,
)
from yieldcrit.convexity import ConvexityReport, powerlaw_quadratic
from conftest import fd_hessian, meridian_convexity_check, random_params

PI3 = math.pi / 3.0


class TestBetaBound:
    def test_endpoints(self):
        assert beta_bound(0.0) == pytest.approx(4.0, abs=1e-9)
        assert beta_bound(1.0 - 1e-12) == pytest.approx(2.0, abs=1e-4)

    def test_half(self):
        # closed-form value: z = 4 pi / 9 makes the atan argument tan(pi/9)
        assert beta_bound(0.5) == pytest.approx(7.0 / 3.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_bound(-0.1)
        with pytest.raises(DomainError):
            beta_bound(1.0)

    def test_monotone_decreasing_in_two_four(self):
        gs = np.linspace(0.0, 1.0 - 1e-9, 400)
        vals = [beta_bound(float(g)) for g in gs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(2.0 < v <= 4.0 + 1e-12 for v in vals)

    def test_interval_agrees_with_curvature_grid(self, rng):
        # the sign of the curvature scan (with g > 0) matches the interval
        # test away from a 1e-6 boundary band
        th = np.linspace(0.0, PI3, 2048)
        for _ in range(100):
            gamma = float(rng.uniform(0.0, 0.999))
            bound = beta_bound(gamma)
            beta = float(rng.uniform(-2.5, 4.5))
            if min(abs(beta - bound), abs(beta - (2.0 - bound))) < 1e-6:
                continue
            inside = (2.0 - bound) <= beta <= bound
            shape = CosineLode(beta=beta, gamma=gamma)
            g = shape.g(th)
            grid_ok = bool(np.all(g > 0.0) and deviatoric_curvature(th, shape).min() >= -1e-9)
            assert grid_ok == inside


class TestMeridianCheck:
    def test_cam_clay_margin_is_one(self):
        # (1 - 2 Phi)^2 + 4 Phi (1 - Phi) == 1 identically
        ok, (phi, margin) = meridian_convexity_check(alpha=1.0, m=2.0)
        assert ok
        assert margin == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < phi < 1.0

    def test_extreme_admissible_corner(self):
        ok, (_, margin) = meridian_convexity_check(alpha=1.99, m=1.01)
        assert ok
        assert margin >= -1e-9

    def test_range_violation_reported_before_grid(self):
        ok, (phi, margin) = meridian_convexity_check(alpha=3.0, m=2.0)
        assert not ok
        assert math.isnan(phi)
        assert margin == -math.inf

    def test_grid_n_validation(self):
        with pytest.raises(DomainError):
            meridian_convexity_check(alpha=1.0, m=2.0, grid_n=1)

    def test_always_ok_on_admissible_range(self, rng):
        for _ in range(50):
            ok, _ = meridian_convexity_check(
                alpha=float(rng.uniform(0.01, 1.99)), m=float(rng.uniform(1.01, 20.0))
            )
            assert ok


class TestDeviatoricCurvature:
    def test_circle_is_one(self):
        shape = CosineLode(beta=1.0, gamma=0.0)
        th = np.linspace(0.0, PI3, 11)
        np.testing.assert_allclose(deviatoric_curvature(th, shape), 1.0, atol=1e-14)

    def test_ottosen_family_convex(self):
        shape = CosineLode(beta=0.0, gamma=0.99)
        th = np.linspace(0.0, PI3, 1000)
        assert deviatoric_curvature(th, shape).min() >= 0.0

    def test_violating_shape_goes_negative(self):
        shape = CosineLode(beta=4.5, gamma=0.5)
        th = np.linspace(0.0, PI3, 1000)
        assert deviatoric_curvature(th, shape).min() < 0.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            deviatoric_curvature(-0.2, CosineLode(1.0, 0.0))

    @pytest.mark.parametrize("theta", [math.nan, np.array([0.1, math.nan])])
    def test_nan_theta(self, theta):
        with pytest.raises(DomainError):
            deviatoric_curvature(theta, CosineLode(1.0, 0.0))


class TestHessian:
    SHAPES = [
        CosineLode(beta=1.0, gamma=0.0),
        CosineLode(beta=0.6, gamma=0.8),
        PowerLaw(beta=0.8, n=3.0),
        WillamWarnke(e=0.7),
        GudehusArgyris(k=0.9),
    ]

    @staticmethod
    def _qg(shape):
        def fun(s):
            s1, s2 = s
            s3 = -s1 - s2
            j2 = 0.5 * (s1 * s1 + s2 * s2 + s3 * s3)
            q = math.sqrt(3.0 * j2)
            arg = 1.5 * math.sqrt(3.0) * s1 * s2 * s3 / j2**1.5
            theta = math.acos(min(1.0, max(-1.0, arg))) / 3.0
            return q / float(shape.g(theta))

        return fun

    def test_matches_finite_differences(self, rng):
        for shape in self.SHAPES:
            fun = self._qg(shape)
            done = 0
            while done < 25:
                s = rng.uniform(-1.0, 1.0, 2)
                if math.sqrt(3 * (s[0] ** 2 + s[0] * s[1] + s[1] ** 2)) < 0.5:
                    continue
                done += 1
                H = hessian_qg(float(s[0]), float(s[1]), shape)
                Hfd = fd_hessian(fun, s)
                scale = max(np.max(np.abs(H)), np.max(np.abs(Hfd)), 1e-12)
                assert np.max(np.abs(H - Hfd)) <= 1e-5 * scale

    def test_rank_one_structure(self, rng):
        for shape in self.SHAPES:
            s1, s2 = rng.uniform(0.2, 1.0, 2)
            H = hessian_qg(float(s1), float(s2), shape)
            m = np.array([s2, -s1])
            coeff = H[0, 0] / m[0] ** 2
            np.testing.assert_allclose(H, coeff * np.outer(m, m), atol=1e-12 * abs(coeff))
            # rank <= 1: the determinant vanishes
            assert abs(np.linalg.det(H)) <= 1e-12 * max(1.0, np.max(np.abs(H))) ** 2

    def test_circle_eigenvalues(self, rng):
        shape = CosineLode(beta=1.0, gamma=0.0)
        s1, s2 = 0.7, -0.25
        q = math.sqrt(3 * (s1 * s1 + s1 * s2 + s2 * s2))
        H = hessian_qg(s1, s2, shape)
        eig = np.sort(np.linalg.eigvalsh(H))
        assert eig[0] == pytest.approx(0.0, abs=1e-14)
        assert eig[1] == pytest.approx(27.0 / (4.0 * q**3) * (s1 * s1 + s2 * s2), rel=1e-12)

    def test_mixed_term_cancellation(self, rng):
        # dq_i dth_j + dq_j dth_i + q d2th_ij vanishes identically.  The
        # closed forms dth_i = -(3 sqrt3 / 2 q^2) m_i and
        # d2th = -(3 sqrt3 / 2 q^2) eps + (3 sqrt3 / q^3) outer(m, dq) are
        # first validated against central differences (at the accuracy a
        # second difference can deliver), then the cancellation is checked
        # among the validated analytic quantities.
        def theta_of(s):
            s1, s2 = s
            s3 = -s1 - s2
            j2 = 0.5 * (s1 * s1 + s2 * s2 + s3 * s3)
            arg = 1.5 * math.sqrt(3.0) * s1 * s2 * s3 / j2**1.5
            return math.acos(min(1.0, max(-1.0, arg))) / 3.0

        eps = np.array([[0.0, 1.0], [-1.0, 0.0]])
        done = 0
        while done < 30:
            # the closed forms carry the orientation of the descending
            # ordered sector S1 >= S2 >= S3; sample there
            triple = np.sort(rng.uniform(-1.0, 1.0, 3))[::-1]
            triple -= triple.mean()
            s = triple[:2]
            s1, s2 = s
            q = math.sqrt(3 * (s1 * s1 + s1 * s2 + s2 * s2))
            th = theta_of(s)
            if q < 0.5 or min(th, PI3 - th) < 0.05:
                continue
            done += 1
            mvec = np.array([s2, -s1])
            dq = 3.0 / (2.0 * q) * np.array([2 * s1 + s2, s1 + 2 * s2])
            dth = -1.5 * math.sqrt(3.0) / q**2 * mvec
            d2th = -1.5 * math.sqrt(3.0) / q**2 * eps + 3.0 * math.sqrt(3.0) / q**3 * np.outer(
                mvec, dq
            )
            h = 1e-5
            dth_fd = np.array(
                [
                    (theta_of(s + [h, 0]) - theta_of(s - [h, 0])) / (2 * h),
                    (theta_of(s + [0, h]) - theta_of(s - [0, h])) / (2 * h),
                ]
            )
            np.testing.assert_allclose(dth, dth_fd, rtol=1e-7, atol=1e-9)
            d2th_fd = fd_hessian(theta_of, s, h=1e-4)
            np.testing.assert_allclose(d2th, d2th_fd, rtol=1e-4, atol=1e-6)
            T = np.outer(dq, dth) + np.outer(dth, dq) + q * d2th
            assert np.max(np.abs(T)) <= 1e-8 * max(1.0, np.max(np.abs(np.outer(dq, dth))))

    def test_degenerate(self):
        with pytest.raises(DegenerateState):
            hessian_qg(0.0, 0.0, CosineLode(1.0, 0.0))

    @pytest.mark.parametrize("s1, s2", [(1e120, 0.0), (math.nan, 0.0), (0.0, math.inf)])
    def test_overflowing_or_nonfinite_state(self, s1, s2):
        # q**3 would overflow, or the state is no number
        with pytest.raises(DomainError, match="must be finite and at most"):
            hessian_qg(s1, s2, CosineLode(1.0, 0.0))


class TestPowerLawBound:
    def test_convexity_limit_pair(self):
        assert powerlaw_beta_max(3.0) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            powerlaw_beta_max(0.0)

    def test_branch_continuity(self):
        n0 = 11.0 / 3.0
        assert powerlaw_beta_max(n0 - 1e-9) == pytest.approx(powerlaw_beta_max(n0 + 1e-9), abs=1e-6)

    def test_monotone_from_zero(self):
        ns = np.linspace(1e-3, 3.0, 50)
        vals = [powerlaw_beta_max(float(n)) for n in ns]
        assert vals[0] < 1e-3
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_quadratic_condition_at_limit(self):
        xs = np.linspace(-1.0, 1.0, 2001)
        assert powerlaw_quadratic(xs, 1.0, 3.0).min() >= -1e-9
        assert powerlaw_quadratic(xs, 1.05, 3.0).min() < 0.0
        # the quadratic agrees in sign with the true curvature
        th = np.linspace(0.0, PI3, 2001)
        assert deviatoric_curvature(th, PowerLaw(beta=1.05, n=3.0)).min() < 0.0

    def test_closed_form_vs_bisection(self, rng):
        xs = np.linspace(-1.0, 1.0, 20001)
        for _ in range(10):
            n = float(rng.uniform(0.1, 8.0))
            lo, hi = 0.0, 50.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if powerlaw_quadratic(xs, mid, n).min() >= 0.0:
                    lo = mid
                else:
                    hi = mid
            assert 0.5 * (lo + hi) == pytest.approx(powerlaw_beta_max(n), abs=1e-6)


class TestCertify:
    def test_sand_row_admissible(self):
        report = certify(
            YieldParams(M=0.5, pc=0.961, c=0.0, m=2.6, alpha=0.1, beta=0.0, gamma=0.9999).criterion()
        )
        assert report.admissible

    def test_cam_clay_admissible(self):
        report = certify(
            YieldParams(M=0.75, pc=1.0, c=0.0, m=2.0, alpha=1.0, beta=1.0, gamma=0.0).criterion()
        )
        assert report.admissible
        assert report.beta_interval == pytest.approx((-2.0, 4.0), abs=1e-9)

    def test_violating_beta_with_witness(self):
        params = YieldParams.unchecked(M=1, pc=1, c=0, m=2, alpha=1, beta=4.5, gamma=0.5)
        report = certify(params.criterion())
        assert not report.admissible
        assert not report.deviatoric_ok
        theta, margin = report.deviatoric_worst
        assert 0.0 <= theta <= PI3
        assert margin < 0.0 or any("not positive" in n for n in report.notes)

    def test_gudehus_argyris_below_exact_boundary(self):
        # the printed range allows k = 0.7775 but the curvature scan does not
        crit = Criterion(meridian=LinearMeridian(Gamma=1.0, c=0.1), shape=GudehusArgyris(k=0.7775))
        report = certify(crit)
        assert not report.admissible
        good = certify(
            Criterion(meridian=LinearMeridian(Gamma=1.0, c=0.1), shape=GudehusArgyris(k=0.9))
        )
        assert good.admissible

    def test_willam_warnke_admissible_everywhere(self, rng):
        for _ in range(10):
            crit = Criterion(
                meridian=LinearMeridian(Gamma=0.7, c=0.2),
                shape=WillamWarnke(e=float(rng.uniform(0.501, 1.0))),
            )
            assert certify(crit).admissible

    def test_quadratic_term_never_flips(self, rng):
        for _ in range(20):
            params = random_params(rng)
            base = certify(params.criterion())
            extended = certify(params.criterion(A=float(rng.uniform(0.01, 5.0))))
            assert base.admissible
            assert extended.admissible

    def test_midpoint_inequality_for_certified_specs(self, rng):
        crit = YieldParams(M=0.8, pc=1.2, c=0.2, m=2.4, alpha=0.9, beta=0.6, gamma=0.7).criterion(A=0.3)
        assert certify(crit).admissible
        for _ in range(10000):
            lam = rng.uniform(0.0, 1.0)
            x = rng.uniform(-1.5, 1.5, 3)
            y = rng.uniform(-1.5, 1.5, 3)
            fx, fy = yield_value(x, crit), yield_value(y, crit)
            rhs = lam * fx + (1.0 - lam) * fy
            if math.isinf(rhs):
                continue
            fmid = yield_value(lam * x + (1.0 - lam) * y, crit)
            assert fmid <= rhs + 1e-10 * max(1.0, abs(rhs))

    def test_boundary_note(self):
        gamma = 0.5
        bound = beta_bound(gamma)
        params = YieldParams.unchecked(M=1, pc=1, c=0, m=2, alpha=1, beta=bound, gamma=gamma)
        report = certify(params.criterion())
        assert report.admissible
        assert any("boundary" in note for note in report.notes)

    def test_report_dict_shape(self):
        report = certify(CosineLodeProblem())
        d = report.to_dict()
        assert set(d) == {
            "admissible",
            "beta_interval",
            "meridian_ok",
            "meridian_worst",
            "deviatoric_ok",
            "deviatoric_worst",
            "notes",
        }

    def test_report_dict_writes_non_finite_witness_as_none(self):
        report = ConvexityReport(
            admissible=False,
            beta_interval=None,
            meridian_ok=False,
            meridian_worst=(math.nan, -math.inf),
            deviatoric_ok=False,
            deviatoric_worst=(0.5, math.inf),
            notes=(),
        )
        d = report.to_dict()
        assert d["meridian_worst"] == {"phi": None, "margin": None}
        assert d["deviatoric_worst"] == {"theta": 0.5, "margin": None}
        json.dumps(d, allow_nan=False)


def CosineLodeProblem():
    return YieldParams(M=0.75, pc=1.0, c=0.0, m=2.0, alpha=1.0, beta=1.0, gamma=0.0).criterion()


class TestNonconvexDemo:
    def test_boundary_and_minimum(self):
        assert nonconvex_demo(1.0, 0.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert nonconvex_demo(1.0 / math.sqrt(2.0), 0.0, 1.0, 1.0) == pytest.approx(
            -0.25, abs=1e-15
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            nonconvex_demo(0.5, 0.0, -1.0, 1.0)

    def test_midpoint_violation_exists(self):
        # grid search for a witness pair along the p axis
        a = b = 1.0
        ps = np.linspace(0.0, 1.0, 101)
        found = False
        for i in range(len(ps)):
            for j in range(i + 2, len(ps), 7):
                mid = 0.5 * (ps[i] + ps[j])
                lhs = nonconvex_demo(mid, 0.0, a, b)
                rhs = 0.5 * (nonconvex_demo(ps[i], 0.0, a, b) + nonconvex_demo(ps[j], 0.0, a, b))
                if lhs > rhs + 1e-12:
                    found = True
                    break
            if found:
                break
        assert found

    def test_zero_level_set_is_convex_polygon(self):
        from yieldcrit import polygon_is_convex

        a = b = 1.0
        ps = np.linspace(0.0, 1.0, 200)
        qs = b * np.sqrt(np.maximum(0.0, ps**2 / a**2 - ps**4 / a**4))
        upper = np.column_stack([ps, qs])
        lower = np.column_stack([ps[::-1][1:-1], -qs[::-1][1:-1]])
        polygon = np.vstack([upper, lower])
        assert polygon_is_convex(polygon)
