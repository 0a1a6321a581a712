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
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import DegenerateDirection, DomainError

if TYPE_CHECKING:
    import numpy as np

# Relative threshold below which a state counts as hydrostatic; under the
# rounding noise of double-precision invariants.
EPS_HYDROSTATIC = 1e-12

# |sin 3*theta| below this means the state sits on a deviatoric meridian
# and the perpendicular direction is undefined.
EPS_MERIDIAN = 1e-12

# Largest stress component magnitude accepted.  The Lode angle needs
# J2^(3/2) and J3, up to about 15 max|sigma|^3, to stay finite in double
# precision, which ends near 2e102.
STRESS_MAX = 1e100

# Upper end of the Lode angle range [0, pi/3].
_THETA_MAX = math.pi / 3.0

_LODE = 1.5 * math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)

# Each formula is written once over a namespace ``xp``: numpy for arrays,
# or FLOAT, the same names over ``math`` for one state in plain floats.
# numpy is imported only where an array is made or taken, so the scalar
# paths (and the CLI commands built on them) never load it.
# Unlike numpy, ``math`` raises on sqrt(-x), float / and ** on a zero
# divisor or an overflow, and max(0.0, nan) is 0.0, so the bodies keep
# their arguments in range.  They multiply rather than use ** where both
# paths must round alike (numpy's vector pow is not libm's) or where
# numpy's pow is slow (a negative base).
FLOAT = SimpleNamespace(
    sqrt=math.sqrt,
    arccos=math.acos,
    cos=math.cos,
    sin=math.sin,
    tan=math.tan,
    where=lambda cond, a, b: a if cond else b,
    # clip and maximum choose as min(max(x, lo), hi) and max(a, b) do, at less cost per call
    clip=lambda x, lo, hi: lo if x < lo else hi if x > hi else x,  # NaN stays NaN, as in numpy
    maximum=lambda a, b: b if b > a else a,
)


def namespace(x):
    """``(FLOAT, x)`` for a real number, ``(numpy, x as a float array)`` otherwise."""
    if isinstance(x, (float, int)):
        return FLOAT, x
    import numpy as np

    return np, np.asarray(x, dtype=float)


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


def _record(cls, fields: dict):
    """A frozen ``cls`` record holding ``fields``, made without ``__init__`` or its checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _check_stress(sig) -> None:
    """DomainError unless every component of ``sig`` (a tuple of three
    floats or an (N, 3) array) is finite and at most STRESS_MAX in magnitude."""
    if isinstance(sig, tuple):
        s1, s2, s3 = sig
        if abs(s1) <= STRESS_MAX and abs(s2) <= STRESS_MAX and abs(s3) <= STRESS_MAX:
            return
        bad = list(sig)
    else:
        import numpy as np

        # the largest magnitude is NaN if any component is
        if np.abs(sig).max(initial=0.0) <= STRESS_MAX:
            return
        bad = sig[~np.all(np.abs(sig) <= STRESS_MAX, axis=-1)][0].tolist()
    raise DomainError(
        f"stress components must be finite and at most {STRESS_MAX:g} in magnitude, got {bad}"
    )


def _principal(stress) -> tuple[float, float, float]:
    """A 3-tuple or 3-list, or anything numpy reshapes to (3,), as three checked floats."""
    if isinstance(stress, (tuple, list)) and len(stress) == 3:
        sig = float(stress[0]), float(stress[1]), float(stress[2])
    else:
        import numpy as np

        sig = tuple(np.asarray(stress, dtype=float).reshape(3).tolist())
    _check_stress(sig)
    return sig


def _lode_angle(j2, j3, xp):
    """theta = acos(3 sqrt(3)/2 J3 / J2^(3/2)) / 3, the argument clamped to [-1, 1]."""
    return xp.arccos(xp.clip(_LODE * j3 / (j2 * xp.sqrt(j2)), -1.0, 1.0)) / 3.0


def _invariant_body(s1, s2, s3, xp):
    """(p, q, theta, hydrostatic) of principal stresses given as floats or columns."""
    tr = s1 + s2 + s3
    mean = tr / 3.0
    p = -mean  # rounds as -tr / 3: division rounds symmetrically about zero
    d1, d2, d3 = s1 - mean, s2 - mean, s3 - mean
    j2 = 0.5 * (d1 * d1 + d2 * d2 + d3 * d3)
    q = xp.sqrt(3.0 * j2)
    hydrostatic = q <= EPS_HYDROSTATIC * xp.maximum(1.0, abs(p))
    j3 = (d1 * d1 * d1 + d2 * d2 * d2 + d3 * d3 * d3) / 3.0
    theta = xp.where(hydrostatic, 0.0, _lode_angle(xp.where(hydrostatic, 1.0, j2), j3, xp))
    return p, q, theta, hydrostatic


def _theta_in_range(theta) -> bool:
    """True when theta (a number or an array) lies in [0, pi/3] to 1e-12; False for NaN."""
    if isinstance(theta, (float, int)):
        return -1e-12 <= theta <= _THETA_MAX + 1e-12
    import numpy as np

    th = np.asarray(theta, dtype=float)
    return bool(np.all((-1e-12 <= th) & (th <= _THETA_MAX + 1e-12)))


def _perp(s_tilde, cos3t: float, sin3t: float):
    """s_tilde_perp from s_tilde, componentwise (floats or arrays), off the meridians."""
    return (_SQRT6 * (s_tilde * s_tilde - 1.0 / 3.0) - cos3t * s_tilde) / sin3t


def invariants(stress) -> Invariants:
    """Compute (p, q, theta) from principal stresses.

    Total function: the acos argument is clamped to [-1, 1] to absorb
    floating-point drift near triaxial states, and hydrostatic states get
    theta = 0 with the flag set.
    """
    p, q, theta, hydrostatic = _invariant_body(*_principal(stress), FLOAT)
    return _record(Invariants, {"p": p, "q": q, "theta": theta, "hydrostatic": hydrostatic})


def invariants_array(stress):
    """(p, q, theta, hydrostatic) arrays for an (N, 3) batch of principal stresses.

    The batch form of :func:`invariants`, with the same clamp and the same
    hydrostatic threshold and convention (theta = 0 where the flag is set).
    A single triple of shape (3,) is taken as a batch of one; any other
    shape than (3,) or (N, 3) raises DomainError.
    """
    import numpy as np

    sig = np.asarray(stress, dtype=float)
    if sig.ndim not in (1, 2) or sig.shape[-1] != 3:
        raise DomainError(f"stress must have shape (3,) or (N, 3), got {sig.shape}")
    sig = sig.reshape(-1, 3)
    _check_stress(sig)
    return _invariant_body(sig[:, 0], sig[:, 1], sig[:, 2], np)


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
    import numpy as np

    sig = _principal(stress)
    p, q, theta, hydrostatic = _invariant_body(*sig, FLOAT)
    if hydrostatic:
        raise DegenerateDirection("theta gradient undefined at a hydrostatic state")
    dj2 = np.array(sig) + p  # S
    dp = np.full(3, -1.0 / 3.0)
    s2 = dj2 * dj2
    dj3 = s2 - s2.sum() / 3.0
    sin3t = math.sin(3.0 * theta)
    if abs(sin3t) <= EPS_MERIDIAN:
        raise DegenerateDirection(
            f"theta gradient undefined on a deviatoric meridian (theta={theta:.6g})"
        )
    cos3t = math.cos(3.0 * theta)
    dtheta = -9.0 / (2.0 * q**3 * sin3t) * (dj3 - q * cos3t / 3.0 * dj2)
    return dp, dj2, dj3, dtheta


def deviatoric_frame(stress) -> DeviatoricFrame:
    """Unit-norm deviatoric frame (s_tilde, s_tilde_perp) of a state.

    Raises DegenerateDirection when q = 0.  On a deviatoric meridian the
    perpendicular direction is a 0/0 limit, so ``defined`` is False there.
    """
    import numpy as np

    sig = _principal(stress)
    p, q, theta, hydrostatic = _invariant_body(*sig, FLOAT)
    if hydrostatic:
        raise DegenerateDirection("deviatoric direction undefined at q = 0")
    s_tilde = math.sqrt(1.5) * (np.array(sig) + p) / q
    sin3t = math.sin(3.0 * theta)
    if abs(sin3t) <= EPS_MERIDIAN:
        return DeviatoricFrame(s_tilde=s_tilde, s_tilde_perp=np.zeros(3), defined=False)
    cos3t = math.cos(3.0 * theta)
    return DeviatoricFrame(s_tilde=s_tilde, s_tilde_perp=_perp(s_tilde, cos3t, sin3t), defined=True)


def principal_from_invariants(p: float, q: float, theta: float) -> np.ndarray:
    """Reconstruct a principal triple from (p, q, theta).

    The inverse of :func:`invariants` up to permutation:
    sigma_k = -p + (2q/3) cos(theta - 2 pi k / 3).
    """
    import numpy as np

    if not _theta_in_range(theta):
        raise DomainError(f"theta must lie in [0, pi/3], got {theta}")
    if not (math.isfinite(p) and math.isfinite(q)):
        raise DomainError(f"p and q must be finite, got p={p}, q={q}")
    if q < 0.0:
        raise DomainError(f"q must be nonnegative, got {q}")
    k = np.arange(3)
    return -p + (2.0 * q / 3.0) * np.cos(theta - 2.0 * math.pi * k / 3.0)
