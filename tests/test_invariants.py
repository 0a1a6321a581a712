import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from yieldcrit import (
    DegenerateDirection,
    DomainError,
    deviatoric_frame,
    invariant_gradients,
    invariants,
    invariants_array,
    principal_from_invariants,
)
from yieldcrit.invariants import STRESS_MAX
from conftest import fd_gradient

PI3 = math.pi / 3.0


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
        assert inv.theta == pytest.approx(0.0, abs=1e-8)
        assert not inv.hydrostatic

    def test_uniaxial_compression(self):
        inv = invariants((-1.0, 0.0, 0.0))
        assert inv.p == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert inv.q == pytest.approx(1.0, abs=1e-15)
        assert inv.theta == pytest.approx(PI3, abs=1e-8)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            invariants((math.nan, 0.0, 0.0))

    @pytest.mark.parametrize("sig", [(1e120, 0.0, 0.0), (0.0, -2e100, 1.0), (1e308, 1e308, 1e308)])
    def test_overflowing_stress_rejected(self, sig):
        # J2^(3/2) would overflow, leaving theta NaN
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
        # the Lode angle's conditioning degrades like sqrt(eps * |sigma|/q)
        theta_tol = max(1e-8, 5.0 * math.sqrt(2.3e-16 * norm / max(ref.q, 1e-300)))
        for perm in itertools.permutations(sig):
            inv = invariants(perm)
            assert inv.p == pytest.approx(ref.p, abs=1e-9 * max(1.0, abs(ref.p)))
            assert inv.q == pytest.approx(ref.q, abs=1e-9 * norm)
            if not ref.hydrostatic:
                assert inv.theta == pytest.approx(ref.theta, abs=theta_tol)

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
        well_conditioned = (
            not ref.hydrostatic
            and not scaled.hydrostatic
            and ref.q > 1e-6 * norm
            and min(ref.theta, PI3 - ref.theta) > 1e-6
        )
        if well_conditioned:
            # theta is homogeneous of degree zero; away from the sector
            # ends and the hydrostatic axis the acos is well conditioned
            assert scaled.theta == pytest.approx(ref.theta, abs=1e-8)

    def test_round_trip_identity(self, rng):
        # p and q round-trip to 1e-12 everywhere; theta does too away from
        # the sector ends, where acos conditioning caps it at ~sqrt(eps)
        for _ in range(300):
            p = rng.uniform(-2.0, 2.0)
            q = rng.uniform(1e-3, 3.0)
            theta = rng.uniform(0.0, PI3)
            inv = invariants(principal_from_invariants(p, q, theta))
            assert inv.p == pytest.approx(p, abs=1e-12 * max(1.0, abs(p)))
            assert inv.q == pytest.approx(q, abs=1e-12 * max(1.0, q))
            tol = 1e-12 if 0.01 < theta < PI3 - 0.01 else 5e-8
            assert inv.theta == pytest.approx(theta, abs=tol)


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
            if min(inv.theta, PI3 - inv.theta) < 0.01:
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
            if inv.hydrostatic or inv.q < 0.05 or min(inv.theta, PI3 - inv.theta) < 0.01:
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
        # s_tilde_perp = -sqrt(2/3) q dtheta/dsigma at every regular state
        for _ in range(100):
            sig = rng.uniform(-2.0, 2.0, 3)
            inv = invariants(sig)
            if inv.hydrostatic or inv.q < 0.05 or min(inv.theta, PI3 - inv.theta) < 0.01:
                continue
            frame = deviatoric_frame(sig)
            _, _, _, dtheta = invariant_gradients(sig)
            np.testing.assert_allclose(
                frame.s_tilde_perp, -math.sqrt(2.0 / 3.0) * inv.q * dtheta, atol=1e-10
            )


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
