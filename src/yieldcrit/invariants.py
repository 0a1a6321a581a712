"""Stress invariants and their gradients for isotropic yield analysis.

The library works with principal stresses (tension positive), which is
sufficient for isotropic criteria: a stress state is a triple
``(sigma1, sigma2, sigma3)`` and every operation here is invariant under
permutation of the three components.

Invariants used throughout:

    p     = -tr(sigma)/3                  mean pressure (compression positive)
    q     = sqrt(3 J2)                    deviatoric stress magnitude
    theta = (1/3) acos(3*sqrt(3)/2 * J3 / J2^(3/2))   Lode angle

with ``S = sigma - tr(sigma)/3 I``, ``J2 = S.S/2`` and ``J3 = tr(S^3)/3``.
The Lode angle lives in ``[0, pi/3]``: theta = 0 is triaxial extension and
theta = pi/3 is triaxial compression.  Hydrostatic states carry the
convention ``theta = 0`` plus a flag, since nothing downstream depends on
theta when q = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDirection, DomainError

# Relative threshold below which a state counts as hydrostatic; under the
# rounding noise of double-precision invariants.
EPS_HYDROSTATIC = 1e-12

# |sin 3*theta| below this means the state sits on a deviatoric meridian
# and the perpendicular direction is undefined.
EPS_MERIDIAN = 1e-12

# Upper end of the Lode angle range [0, pi/3].
_THETA_MAX = math.pi / 3.0


@dataclass(frozen=True)
class Invariants:
    """The (p, q, theta) triple of a stress state.

    ``hydrostatic`` is set when q vanishes relative to the state's scale;
    theta then carries the convention value 0.
    """

    p: float
    q: float
    theta: float
    hydrostatic: bool = False


@dataclass(frozen=True)
class DeviatoricFrame:
    """Unit deviatoric direction and its in-plane perpendicular.

    ``s_tilde`` is sqrt(3/2) S / q.  ``s_tilde_perp`` is the unit tensor
    coaxial with S, deviatoric, and orthogonal to s_tilde; it is undefined
    on the deviatoric meridians (sin 3*theta = 0), where ``defined`` is
    False and ``s_tilde_perp`` is a zero triple.
    """

    s_tilde: np.ndarray
    s_tilde_perp: np.ndarray
    defined: bool


def _as_principal(stress) -> np.ndarray:
    sig = np.asarray(stress, dtype=float).reshape(3)
    if not np.all(np.isfinite(sig)):
        raise DomainError(f"stress components must be finite, got {sig}")
    return sig


def _deviator(sig: np.ndarray) -> np.ndarray:
    return sig - sig.sum() / 3.0


def invariants(stress) -> Invariants:
    """Compute (p, q, theta) from principal stresses.

    Total function: the acos argument is clamped to [-1, 1] to absorb
    floating-point drift near triaxial states, and hydrostatic states get
    theta = 0 with the flag set.
    """
    sig = _as_principal(stress)
    p = -float(sig.sum()) / 3.0
    s = _deviator(sig)
    j2 = 0.5 * float(np.dot(s, s))
    q = math.sqrt(3.0 * j2)
    if q <= EPS_HYDROSTATIC * max(1.0, abs(p)):
        return Invariants(p=p, q=q, theta=0.0, hydrostatic=True)
    j3 = float(np.sum(s**3)) / 3.0
    arg = 1.5 * math.sqrt(3.0) * j3 / j2**1.5
    arg = min(1.0, max(-1.0, arg))
    theta = math.acos(arg) / 3.0
    return Invariants(p=p, q=q, theta=theta, hydrostatic=False)


def invariants_array(stress):
    """(p, q, theta, hydrostatic) arrays for an (N, 3) batch of principal stresses.

    The batch form of :func:`invariants`, with the same clamp and the same
    hydrostatic threshold and convention (theta = 0 where the flag is set).
    A single triple of shape (3,) is taken as a batch of one; any other
    shape than (3,) or (N, 3) raises DomainError.
    """
    sig = np.asarray(stress, dtype=float)
    if sig.ndim not in (1, 2) or sig.shape[-1] != 3:
        raise DomainError(f"stress must have shape (3,) or (N, 3), got {sig.shape}")
    sig = sig.reshape(-1, 3)
    if not np.all(np.isfinite(sig)):
        raise DomainError("stress components must be finite")
    tr = sig[:, 0] + sig[:, 1] + sig[:, 2]
    p = -tr / 3.0
    s = sig - (tr / 3.0)[:, None]
    j2 = 0.5 * (s[:, 0] * s[:, 0] + s[:, 1] * s[:, 1] + s[:, 2] * s[:, 2])
    q = np.sqrt(3.0 * j2)
    hydrostatic = q <= EPS_HYDROSTATIC * np.maximum(1.0, np.abs(p))
    s3 = s**3
    j3 = (s3[:, 0] + s3[:, 1] + s3[:, 2]) / 3.0
    arg = 1.5 * math.sqrt(3.0) * j3 / np.where(hydrostatic, 1.0, j2) ** 1.5
    theta = np.where(hydrostatic, 0.0, np.arccos(np.clip(arg, -1.0, 1.0)) / 3.0)
    return p, q, theta, hydrostatic


def invariant_gradients(stress):
    """Gradients of p, J2, J3 and theta with respect to principal stress.

    Returns
    -------
    (dp, dJ2, dJ3, dtheta) : tuple of ndarray, shape (3,)
        dp = -I/3, dJ2 = S, dJ3 = S^2 - (tr S^2 / 3) I and
        dtheta = -9/(2 q^3 sin 3t) * (S^2 - (tr S^2/3) I - q cos(3t)/3 S).

    Raises
    ------
    DegenerateDirection
        When q = 0 or sin 3*theta = 0; the theta gradient is undefined and
        the caller must switch to the smooth-limit form of the criterion
        gradient instead.
    """
    sig = _as_principal(stress)
    inv = invariants(sig)
    if inv.hydrostatic:
        raise DegenerateDirection("theta gradient undefined at a hydrostatic state")
    s = _deviator(sig)
    dp = np.full(3, -1.0 / 3.0)
    dj2 = s.copy()
    s2 = s * s
    dj3 = s2 - s2.sum() / 3.0
    sin3t = math.sin(3.0 * inv.theta)
    if abs(sin3t) <= EPS_MERIDIAN:
        raise DegenerateDirection(
            f"theta gradient undefined on a deviatoric meridian (theta={inv.theta:.6g})"
        )
    cos3t = math.cos(3.0 * inv.theta)
    dtheta = -9.0 / (2.0 * inv.q**3 * sin3t) * (dj3 - inv.q * cos3t / 3.0 * s)
    return dp, dj2, dj3, dtheta


def deviatoric_frame(stress) -> DeviatoricFrame:
    """Unit-norm deviatoric frame (s_tilde, s_tilde_perp) of a state.

    Raises DegenerateDirection when q = 0.  On a deviatoric meridian the
    perpendicular direction is a 0/0 limit, so ``defined`` is False there.
    """
    sig = _as_principal(stress)
    inv = invariants(sig)
    if inv.hydrostatic:
        raise DegenerateDirection("deviatoric direction undefined at q = 0")
    s = _deviator(sig)
    s_tilde = math.sqrt(1.5) * s / inv.q
    sin3t = math.sin(3.0 * inv.theta)
    if abs(sin3t) <= EPS_MERIDIAN:
        return DeviatoricFrame(s_tilde=s_tilde, s_tilde_perp=np.zeros(3), defined=False)
    cos3t = math.cos(3.0 * inv.theta)
    perp = (math.sqrt(6.0) * (s_tilde**2 - 1.0 / 3.0) - cos3t * s_tilde) / sin3t
    return DeviatoricFrame(s_tilde=s_tilde, s_tilde_perp=perp, defined=True)


def principal_from_invariants(p: float, q: float, theta: float) -> np.ndarray:
    """Reconstruct a principal triple from (p, q, theta).

    The inverse of :func:`invariants` up to permutation:
    sigma_k = -p + (2q/3) cos(theta - 2 pi k / 3).
    """
    if not (-1e-12 <= theta <= _THETA_MAX + 1e-12):
        raise DomainError(f"theta must lie in [0, pi/3], got {theta}")
    if q < 0.0:
        raise DomainError(f"q must be nonnegative, got {q}")
    k = np.arange(3)
    return -p + (2.0 * q / 3.0) * np.cos(theta - 2.0 * math.pi * k / 3.0)
