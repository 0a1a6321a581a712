import decimal
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from yieldcrit import (
    CosineLode,
    DegenerateDirection,
    DomainError,
    YieldParams,
    deviatoric_curvature,
    deviatoric_frame,
    invariant_gradients,
    invariants,
    invariants_array,
    principal_from_invariants,
    surface_q,
    surface_q_array,
)
from yieldcrit.invariants import STRESS_MAX
from conftest import fd_gradient

PI3 = math.pi / 3.0
CAM_CLAY = YieldParams(M=0.75, pc=1.0, c=0.0, m=2.0, alpha=1.0, beta=1.0, gamma=0.0).criterion()


class TestInvariants:
    def test_pure_hydrostatic(self):
        inv = invariants((-1.0, -1.0, -1.0))
        assert inv.p == 1.0
        assert inv.q == 0.0
        assert inv.theta == 0.0
        assert inv.hydrostatic

    def test_uniaxial_tension(self):
        # S = (2/3, -1/3, -1/3), J2 = 1/3, cos 3theta = 1
        inv = invariants((1.0, 0.0, 0.0))
        assert inv.p == pytest.approx(-1.0 / 3.0, abs=1e-15)
        assert inv.q == pytest.approx(1.0, abs=1e-15)
        assert inv.theta == 0.0
        assert not inv.hydrostatic

    def test_uniaxial_compression(self):
        inv = invariants((-1.0, 0.0, 0.0))
        assert inv.p == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert inv.q == pytest.approx(1.0, abs=1e-15)
        assert inv.theta == PI3

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            invariants((math.nan, 0.0, 0.0))

    @pytest.mark.parametrize("sig", [(1e120, 0.0, 0.0), (0.0, -2e100, 1.0), (1e308, 1e308, 1e308)])
    def test_overflowing_stress_rejected(self, sig):
        # beyond STRESS_MAX, below which q^3 of the Hessian of q/g stays finite
        with pytest.raises(DomainError, match="at most 1e\\+100"):
            invariants(sig)
        with pytest.raises(DomainError, match="at most 1e\\+100"):
            invariants_array(np.array([(1.0, 0.0, 0.0), sig]))

    def test_largest_accepted_stress_is_finite(self):
        for sig in [(STRESS_MAX, 0.0, 0.0), (STRESS_MAX, -STRESS_MAX, 0.3 * STRESS_MAX)]:
            inv = invariants(sig)
            assert all(math.isfinite(x) for x in (inv.p, inv.q, inv.theta))
            p, q, theta, _ = invariants_array(np.array([sig]))
            assert np.all(np.isfinite([p, q, theta]))

    @given(
        st.tuples(
            st.floats(-1e6, 1e6),
            st.floats(-1e6, 1e6),
            st.floats(-1e6, 1e6),
        )
    )
    @settings(max_examples=200)
    def test_permutation_invariance(self, sig):
        ref = invariants(sig)
        norm = max(1.0, math.sqrt(sum(s * s for s in sig)))
        for perm in itertools.permutations(sig):
            inv = invariants(perm)
            assert inv.p == pytest.approx(ref.p, abs=1e-9 * max(1.0, abs(ref.p)))
            assert inv.q == pytest.approx(ref.q, abs=1e-9 * norm)
            if not ref.hydrostatic:
                # theta is computed from the sorted principals, so it has the same bits
                assert inv.theta == ref.theta

    @given(
        st.tuples(st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100)),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200)
    def test_scaling_degree(self, sig, lam):
        ref = invariants(sig)
        scaled = invariants(tuple(lam * s for s in sig))
        norm = max(1.0, math.sqrt(sum(s * s for s in sig)))
        assert scaled.p == pytest.approx(lam * ref.p, rel=1e-12, abs=1e-11 * lam * norm)
        assert scaled.q == pytest.approx(lam * ref.q, rel=1e-12, abs=1e-11 * lam * norm)
        if not ref.hydrostatic and not scaled.hydrostatic:
            # theta is homogeneous of degree zero.  Scaling rounds each principal
            # by eps |sigma|, which moves theta by about eps |sigma| / q: the angle
            # is conditioned by the distance from the hydrostatic axis alone
            size = math.sqrt(sum(s * s for s in sig))
            assert scaled.theta == pytest.approx(ref.theta, abs=1e-15 * (1.0 + size / ref.q))

    def test_round_trip_identity(self, rng):
        # p and q round-trip to 1e-12 everywhere, and theta to a few eps (1 + |p| / q),
        # also at the sector ends: principal_from_invariants rounds each principal
        # by about eps max(|p|, q), which moves theta by about that over q
        ends = [0.0, PI3, *rng.uniform(0.0, 1e-6, 50), *(PI3 - rng.uniform(0.0, 1e-6, 50))]
        for theta in [*rng.uniform(0.0, PI3, 300), *ends]:
            p = rng.uniform(-2.0, 2.0)
            q = rng.uniform(1e-3, 3.0)
            inv = invariants(principal_from_invariants(p, q, theta))
            assert inv.p == pytest.approx(p, abs=1e-12 * max(1.0, abs(p)))
            assert inv.q == pytest.approx(q, abs=1e-12 * max(1.0, q))
            assert inv.theta == pytest.approx(theta, abs=min(1e-12, 1e-15 * (1.0 + abs(p) / q)))


class TestPrincipalFromInvariants:
    def test_extension_point(self):
        sig = principal_from_invariants(0.0, 1.0, 0.0)
        np.testing.assert_allclose(sig, [2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0], atol=1e-15)

    def test_hydrostatic(self):
        sig = principal_from_invariants(1.0, 0.0, 0.0)
        np.testing.assert_allclose(sig, [-1.0, -1.0, -1.0], atol=1e-15)

    def test_compression_point(self):
        sig = principal_from_invariants(0.0, 1.0, PI3)
        np.testing.assert_allclose(np.sort(sig), [-2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_theta_out_of_range(self):
        with pytest.raises(DomainError):
            principal_from_invariants(0.0, 1.0, PI3 + 0.1)
        with pytest.raises(DomainError):
            principal_from_invariants(0.0, -1.0, 0.1)

    @pytest.mark.parametrize("p, q", [(0.5, math.nan), (math.nan, 1.0), (math.inf, 1.0), (0.5, math.inf)])
    def test_non_finite_p_or_q(self, p, q):
        with pytest.raises(DomainError):
            principal_from_invariants(p, q, 0.3)

    @pytest.mark.parametrize(
        "theta, message",
        [
            ([0.1, 0.2, 0.3], "theta must be a number, got [0.1, 0.2, 0.3]"),
            (np.array([0.1, 0.2, 0.3]), "theta must be a number, got array([0.1, 0.2, 0.3])"),
            ("0.1", "theta must be a number or an array of numbers, got '0.1'"),
            ("x", "theta must be a number or an array of numbers, got 'x'"),
        ],
    )
    def test_theta_that_is_not_one_number(self, theta, message):
        # an array paired angle k with principal k: theta [0.1, 0.2, 0.3] gave a state of theta 0.2324
        with pytest.raises(DomainError) as info:
            principal_from_invariants(0.0, 1.0, theta)
        assert str(info.value) == message

    def test_p_or_q_that_is_not_a_number(self):
        # a bare TypeError from math.isfinite before
        with pytest.raises(DomainError, match="p must be a number, got 'x'"):
            principal_from_invariants("x", 1.0, 0.3)
        with pytest.raises(DomainError, match="q must be a number, got 'x'"):
            principal_from_invariants(0.0, "x", 0.3)


class TestInvariantGradients:
    def test_dp_constant(self):
        dp, _, _, _ = invariant_gradients((1.0, 0.3, -0.2))
        np.testing.assert_allclose(dp, -np.ones(3) / 3.0, atol=1e-15)

    def test_dj2_is_deviator(self):
        _, dj2, _, _ = invariant_gradients((1.0, 0.3, -0.2))
        sig = np.array([1.0, 0.3, -0.2])
        np.testing.assert_allclose(dj2, sig - sig.sum() / 3.0, atol=1e-15)

    def test_uniaxial_dj2(self):
        # degenerate for dtheta, so check via a nearby state: the deviator
        # itself is the J2 gradient regardless
        sig = np.array([1.0, 0.01, -0.02])
        _, dj2, _, _ = invariant_gradients(sig)
        np.testing.assert_allclose(dj2, sig - sig.sum() / 3.0, atol=1e-15)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateDirection):
            invariant_gradients((1.0, 1.0, 1.0))
        with pytest.raises(DegenerateDirection):
            invariant_gradients((1.0, 0.0, 0.0))  # theta = 0 meridian

    def test_dtheta_matches_finite_differences(self):
        sig = np.array([1.0, 0.3, -0.2])
        _, _, _, dtheta = invariant_gradients(sig)
        fd = fd_gradient(lambda s: invariants(s).theta, sig)
        assert np.linalg.norm(dtheta - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_all_gradients_match_fd_at_random_states(self, rng):
        # 1000 random non-degenerate states, relative error <= 1e-6
        count = 0
        while count < 1000:
            sig = rng.uniform(-2.0, 2.0, 3)
            inv = invariants(sig)
            if inv.hydrostatic or inv.q < 0.05:
                continue
            # theta has a kink on the meridians; a central difference of step
            # 1e-6 |sigma| moves theta by up to 1e-4 at q = 0.05, so one within
            # 1e-3 of a meridian could straddle it
            if min(inv.theta, PI3 - inv.theta) < 1e-3:
                continue
            count += 1
            dp, dj2, dj3, dtheta = invariant_gradients(sig)

            def j2_of(s):
                d = np.asarray(s) - np.sum(s) / 3.0
                return 0.5 * float(np.dot(d, d))

            def j3_of(s):
                d = np.asarray(s) - np.sum(s) / 3.0
                return float(np.sum(d**3)) / 3.0

            for grad, fun in [
                (dp, lambda s: invariants(s).p),
                (dj2, j2_of),
                (dj3, j3_of),
                (dtheta, lambda s: invariants(s).theta),
            ]:
                fd = fd_gradient(fun, sig)
                err = np.linalg.norm(grad - fd) / max(1e-30, np.linalg.norm(fd))
                assert err <= 1e-6

    def test_dtheta_orthogonal_to_identity_and_deviator(self, rng):
        for _ in range(200):
            sig = rng.uniform(-2.0, 2.0, 3)
            inv = invariants(sig)
            if inv.hydrostatic or inv.q < 0.05:
                continue
            _, _, _, dtheta = invariant_gradients(sig)
            s = np.asarray(sig) - np.sum(sig) / 3.0
            scale = np.linalg.norm(dtheta)
            assert abs(np.sum(dtheta)) <= 1e-9 * max(1.0, scale)
            assert abs(np.dot(dtheta, s)) <= 1e-9 * max(1.0, scale * np.linalg.norm(s))


class TestDeviatoricFrame:
    def test_meridian_state_not_defined(self):
        frame = deviatoric_frame((1.0, 0.0, 0.0))
        expected = math.sqrt(1.5) * np.array([2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0])
        np.testing.assert_allclose(frame.s_tilde, expected, atol=1e-14)
        assert not frame.defined

    def test_interior_state_identities(self):
        frame = deviatoric_frame((1.0, 0.3, -0.2))
        assert frame.defined
        assert np.linalg.norm(frame.s_tilde) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(frame.s_tilde_perp) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.dot(frame.s_tilde, frame.s_tilde_perp)) <= 1e-12
        assert abs(np.sum(frame.s_tilde)) <= 1e-12
        assert abs(np.sum(frame.s_tilde_perp)) <= 1e-12

    def test_hydrostatic_raises(self):
        with pytest.raises(DegenerateDirection):
            deviatoric_frame((-1.0, -1.0, -1.0))

    def test_perp_is_normalized_theta_gradient(self, rng):
        # s_tilde_perp = -sqrt(2/3) q dtheta/dsigma at every regular state.  The
        # oracle is dtheta's J3 closed form, which the library does not use:
        # dtheta = -9 / (2 q^3 sin 3t) (dJ3 - q cos 3t / 3 S).  It divides by
        # sin 3t, so it is the oracle that loses digits near a meridian, and
        # states within 0.01 of one are left out (TestExactLodeAngle checks them)
        for _ in range(100):
            sig = rng.uniform(-2.0, 2.0, 3)
            inv = invariants(sig)
            if inv.hydrostatic or inv.q < 0.05 or min(inv.theta, PI3 - inv.theta) < 0.01:
                continue
            q, t3 = inv.q, 3.0 * inv.theta
            s = sig - np.sum(sig) / 3.0
            dj3 = s * s - np.sum(s * s) / 3.0
            oracle = -9.0 / (2.0 * q**3 * math.sin(t3)) * (dj3 - q * math.cos(t3) / 3.0 * s)
            want = -math.sqrt(2.0 / 3.0) * q * oracle
            np.testing.assert_allclose(deviatoric_frame(sig).s_tilde_perp, want, atol=1e-10)
            _, _, _, dtheta = invariant_gradients(sig)
            np.testing.assert_allclose(-math.sqrt(2.0 / 3.0) * q * dtheta, want, atol=1e-10)


class TestExactLodeAngle:
    # theta is atan2(sqrt(3) (b - c), (a - b) + (a - c)) of the sorted principals
    # a >= b >= c: exact where two principals are equal, a few ulp elsewhere

    @staticmethod
    def thetas(states) -> list:
        """theta of each state on the scalar path, then on the array path."""
        return [[invariants(s).theta for s in states], invariants_array(np.array(states))[2].tolist()]

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @settings(max_examples=200)
    def test_two_equal_principals_give_a_meridian_exactly(self, x, y):
        assume(not invariants((x, y, y)).hydrostatic and not invariants((y, x, x)).hydrostatic)
        # a lone principal above the pair is triaxial extension, below it triaxial compression
        above, below = 0.0, PI3
        for lone, pair in [(x, y), (y, x)]:
            want = above if lone > pair else below
            for got in self.thetas([(lone, pair, pair), (pair, lone, pair), (pair, pair, lone)]):
                assert got == [want] * 3
                assert all(math.copysign(1.0, th) == 1.0 for th in got)  # never -0.0

    @given(st.integers(-2**40, 2**40), st.integers(1, 2**40), st.integers(-60, 60))
    @settings(max_examples=200)
    def test_the_midpoint_gives_pi_over_6(self, shift, step, exponent):
        # (x, m, z) with m the midpoint of x and z, shifted and scaled by a power
        # of two so that each principal and each difference is a float exactly
        x, m, z = (math.ldexp(float(shift + k * step), exponent) for k in (2, 1, 0))
        states = list(itertools.permutations((x, m, z)))
        assume(not invariants(states[0]).hydrostatic)
        for got in self.thetas(states):
            assert max(abs(th - math.pi / 6.0) for th in got) <= 2 * math.ulp(math.pi / 6.0)

    def test_a_meridian_state_has_no_perpendicular(self):
        # theta must be exactly 0 here for the meridian test to see the meridian
        frame = deviatoric_frame((-0.2, -0.5, -0.5))
        assert not frame.defined
        assert frame.s_tilde_perp.tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(DegenerateDirection):
            invariant_gradients((-0.2, -0.5, -0.5))

    # a gap of 3.75e-8 puts (0.5, -0.3) at (0.5, -0.3, -0.30000003)
    @pytest.mark.parametrize("gap", [1e-5, 3.75e-8, 1e-9, 1e-11, 1e-12])
    @pytest.mark.parametrize("x, y", [(0.5, -0.3), (-0.2, -0.5), (2.0, 7.0), (-1.5, 3.25)])
    def test_the_frame_near_a_meridian(self, x, y, gap):
        # the third principal a relative gap from the pair of (x, y, y)
        for sig in itertools.permutations((x, y, y + gap * (y - x))):
            frame = deviatoric_frame(sig)
            assert frame.defined
            u, v = frame.s_tilde, frame.s_tilde_perp
            assert abs(float(v @ v) - 1.0) <= 1e-15
            assert abs(float(v.sum())) <= 1e-15
            assert abs(float(u @ v)) <= 1e-15
            # a 50-digit oracle up to sign: s_tilde_perp is parallel to (s3 - s2, s1 - s3, s2 - s1)
            with decimal.localcontext(prec=50):
                s1, s2, s3 = map(decimal.Decimal, sig)
                d = [s3 - s2, s1 - s3, s2 - s1]
                norm = sum(c * c for c in d).sqrt()
                want = np.array([float(c / norm) for c in d])
            assert np.abs(v - math.copysign(1.0, v @ want) * want).max() <= 4e-16
            # and the sign: theta decreases along s_tilde_perp, so a step along it
            # leaves pi/3 and a step against it leaves 0
            inv = invariants(sig)
            step = (1e-3 if inv.theta > PI3 / 2 else -1e-3) * inv.q * v
            moved = invariants(tuple(np.asarray(sig) + step)).theta
            assert moved < inv.theta if inv.theta > PI3 / 2 else moved > inv.theta


@given(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)))
@settings(max_examples=200)
def test_deviatoric_frame_cayley_hamilton(sig):
    # s_tilde is a traceless unit tensor, so sum(s_tilde^4) = 1/2.  The
    # trace of the computed deviator carries a rounding error of order
    # eps |p| / q, so states close to the hydrostatic axis are left out.
    inv = invariants(sig)
    assume(inv.q > 1e-5 * max(1.0, abs(inv.p)))
    s_tilde = deviatoric_frame(sig).s_tilde
    assert float(np.dot(s_tilde**2, s_tilde**2)) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("theta", [math.nan, -1e-9, PI3 + 1e-9, 2.0, np.array([0.1, 2.0])])
@pytest.mark.parametrize(
    "call",
    [
        lambda th: surface_q(0.5, th, CAM_CLAY),
        lambda th: surface_q_array(0.5, th, CAM_CLAY),
        lambda th: deviatoric_curvature(th, CosineLode(beta=0.5, gamma=0.5)),
        lambda th: principal_from_invariants(0.5, 1.0, th),
        lambda th: CosineLode(beta=0.5, gamma=0.5).dg(th),
    ],
    ids=["surface_q", "surface_q_array", "deviatoric_curvature", "principal_from_invariants", "shape.dg"],
)
def test_theta_outside_the_sector_is_one_message_everywhere(call, theta):
    # principal_from_invariants and surface_q take a number; an array is
    # refused there too, by the same check
    with pytest.raises(DomainError) as info:
        call(theta)
    assert str(info.value) == f"theta must lie in [0, pi/3], got {theta}"
