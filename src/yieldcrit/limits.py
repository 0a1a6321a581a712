"""Reductions to classical criteria and comparison oracles.

The seven-parameter criterion reduces to the classical criteria of
von Mises, Drucker-Prager, Tresca, modified Tresca, Coulomb-Mohr and
modified Cam-clay in limit situations.  Several of those limits send
pc to infinity; here that is a finite surrogate pc = 10^k times the
reference strength, and ``criterion._excluded_limits`` realizes gamma = 1 as
1 - 1e-9 and alpha = 0 as 10^-2k, each with a warning.  An ellipse or a cone, matched
through g of the realized section, then reproduces the uniaxial strengths
with a relative error of order 10^-k.

Also provided: the parameter correspondence with the Deshpande-Fleck foam
surface, equivalent-parameter construction against the Gurson-Tvergaard
porous-metal criterion, and the Newman-Newman empirical triaxial strength
relation for concrete.
"""

from __future__ import annotations

import math
import warnings as _warnings
from sys import float_info

from .criterion import CosineLode, Criterion, YieldParams, _excluded_limits, _real_fields
from .errors import DomainError, ShapeMismatch, count, real
from .invariants import STRESS_MAX, Record, _floats, invariants

# The deviatoric sections of the classical criteria as (beta, gamma), the hexagon at gamma = 1.
_CIRCLE = (1.0, 0.0)
_HEXAGON = (1.0, 1.0)


def _gurson_inputs(**values) -> list[float]:
    """The inputs under the number rule; DomainError unless 0 <= f_void < 1 and sigma_m > 0."""
    floats = {name: real(value, name) for name, value in values.items()}
    if not 0.0 <= floats["f_void"] < 1.0:
        raise DomainError(f"void fraction must lie in [0, 1), got {floats['f_void']}")
    if floats["sigma_m"] <= 0.0:
        raise DomainError(f"matrix flow stress must be positive, got {floats['sigma_m']}")
    return list(floats.values())


class _TensileStrength(Record):
    """A pressure-insensitive criterion; ft > 0 is the uniaxial strength."""

    ft: float

    def __post_init__(self):
        _real_fields(self)
        if self.ft <= 0.0:
            raise DomainError(f"ft must be positive, got {self.ft}")


class _StrengthRatio(Record):
    """A pressure-sensitive criterion; fc > 0 and r = fc/ft >= 1."""

    fc: float
    r: float

    def __post_init__(self):
        _real_fields(self)
        if self.fc <= 0.0:
            raise DomainError(f"fc must be positive, got {self.fc}")
        if self.r < 1.0:
            raise DomainError(f"r = fc/ft must be at least 1 for real materials, got {self.r}")


class VonMises(_TensileStrength):
    """Pressure-insensitive circle; ft is the uniaxial strength."""

    _section = _CIRCLE


class DruckerPrager(_StrengthRatio):
    """Cone with circular section; r = fc/ft >= 1."""

    _section = _CIRCLE


class Tresca(_TensileStrength):
    """Pressure-insensitive hexagon; ft is the uniaxial strength."""

    _section = _HEXAGON


class ModifiedTresca(_StrengthRatio):
    """Cone with hexagonal section; r = fc/ft >= 1."""

    _section = _HEXAGON


class CoulombMohr(_StrengthRatio):
    """Frictional hexagonal pyramid; r = fc/ft >= 1."""

    @property
    def _section(self) -> tuple[float, float]:
        return (6.0 / math.pi) * math.atan(math.sqrt(3.0) / (2.0 * self.r + 1.0)), 1.0


class ModifiedCamClay(Record):
    """Elliptic cap criterion; exact special case, no limit involved."""

    M: float
    pc: float

    def __post_init__(self):
        _real_fields(self)
        if self.M <= 0.0 or self.pc <= 0.0:
            raise DomainError(f"M and pc must be positive, got M={self.M}, pc={self.pc}")


ClassicalCriterion = _TensileStrength | _StrengthRatio | ModifiedCamClay


class LimitRealization(Record):
    """Seven-parameter realization of a classical criterion.

    ``scale_exponent`` k records the finite surrogate pc = 10^k times the
    reference strength used for the infinite limits; the strength error of
    the realization is of order 10^-k.  ``warnings`` lists the limit
    substitutions applied.
    """

    params: YieldParams
    scale_exponent: int
    warnings: tuple[str, ...] = ()

    def criterion(self) -> Criterion:
        return self.params.criterion()


def _scale(k: int, strength: float) -> float:
    """10^k, the factor of the surrogate pc = 10^k ``strength``; DomainError when
    that pc would exceed STRESS_MAX, the largest stress the library accepts."""
    scale = 10.0**k if k <= float_info.max_10_exp else math.inf
    if scale * strength > STRESS_MAX:
        raise DomainError(f"scale_exponent={k} puts the surrogate pc above {STRESS_MAX:g}")
    return scale


def _ellipse(ft: float, section, k: int, *notes) -> LimitRealization:
    """The pressure-insensitive limit: the ellipse c = pc = 10^k ft, whose radius
    M pc g / 2 at the middle of the cap is ft (g(0) = g(pi/3) on its sections)."""
    gamma, alpha, limits = _excluded_limits(section[1], 1.0, 10.0 ** (-2 * k))
    shape = CosineLode(beta=section[0], gamma=gamma)
    pc = _scale(k, ft) * ft
    M = 2.0 * ft / (pc * shape.g(0.0))
    params = YieldParams(M=M, pc=pc, c=pc, m=2.0, alpha=alpha, beta=shape.beta, gamma=shape.gamma)
    return LimitRealization(params=params, scale_exponent=k, warnings=notes + limits)


def _cone(fc: float, r: float, section, k: int) -> LimitRealization:
    """The pressure-sensitive limit: the cone alpha -> 0, pc = m fc with
    m = 10^k, where F = q / g + sqrt(2) M (p + c) is 0 at uniaxial tension
    (q = fc / r, theta = 0) and compression (q = fc, theta = pi/3)."""
    gamma, alpha, notes = _excluded_limits(section[1], 0.0, 10.0 ** (-2 * k))
    shape = CosineLode(beta=section[0], gamma=gamma)
    c0, c3 = 1.0 / shape.g(0.0), 1.0 / shape.g(math.pi / 3.0)
    den = 3.0 * (r * c3 - c0)
    if den <= 0.0:
        raise DomainError(
            f"c denominator 3 r cos(beta pi/6 - pi/3) - 3 cos(beta pi/6) = {den:.6g} "
            f"is not positive for r={r}, beta={shape.beta}"
        )
    M = den / (math.sqrt(2.0) * (r + 1.0))
    c = fc * (c0 + c3) / den
    if M <= 0.0 or c <= 0.0:
        raise DomainError(f"M={M:.6g}, c={c:.6g} not positive for r={r}, beta={shape.beta}")
    ok, _, _, note = shape.convexity()  # only coulomb_mohr_generalized's free beta can fail it
    if not ok:
        raise DomainError(note)
    scale = _scale(k, fc)
    # alpha = 10^-2k adds about alpha / (4 Phi), so 10^-k, to the meridian's relative
    # error, as Phi ~ 10^-k at compression and 10^-k / r at tension.  The radicand, about
    # Phi (2 Phi + alpha), loses digits below the normal floats (k >= 154, less for a large r).
    if alpha < float_info.min:
        raise DomainError(f"scale_exponent={k} puts the surrogate alpha below {float_info.min:g}")
    phi = (c - fc / r / 3.0) / (scale * fc + c)
    if phi * (2.0 * phi + alpha) < float_info.min:
        raise DomainError(f"scale_exponent={k} puts the radicand at tension below {float_info.min:g}")
    params = YieldParams(M=M, pc=scale * fc, c=c, m=scale, alpha=alpha, beta=shape.beta, gamma=shape.gamma)
    return LimitRealization(params=params, scale_exponent=k, warnings=notes)


def realize(criterion: ClassicalCriterion, scale_exponent: int = 6) -> LimitRealization:
    """Build the seven-parameter realization of a classical criterion.

    Von Mises, Tresca and any r = 1 become ellipses with c = pc = 10^k ft,
    the three pressure-sensitive criteria cones with alpha -> 0 and
    pc = 10^k fc.  Both match the uniaxial strengths through g of the
    realized section, and reproduce them with a relative error of order
    10^-k (k = scale_exponent, an integer >= 3).  A k that puts that pc above
    STRESS_MAX, or alpha = 10^-2k or the cone's radicand at tension below the
    normal floats (k >= 154, a few less for a large r), is a DomainError.
    """
    if not isinstance(criterion, ClassicalCriterion):
        raise DomainError(f"unknown classical criterion {criterion!r}")
    k = count(scale_exponent, "scale_exponent", 3)
    if isinstance(criterion, ModifiedCamClay):
        # Exact: no limit surrogate needed.
        params = YieldParams(M=criterion.M, pc=criterion.pc, c=0.0, m=2.0, alpha=1.0, beta=1.0, gamma=0.0)
        return LimitRealization(params=params, scale_exponent=k, warnings=())
    if isinstance(criterion, _TensileStrength):
        return _ellipse(criterion.ft, criterion._section, k)
    fc, r = criterion.fc, criterion.r
    if r == 1.0:
        # The cone's c = 2 fc / (3 (r-1)) degenerates; the criterion is
        # pressure insensitive and reduces to its r = 1 counterpart.
        if isinstance(criterion, DruckerPrager):
            return _ellipse(fc, _CIRCLE, k, "r=1: Drucker-Prager reduces to von Mises")
        return _ellipse(fc, _HEXAGON, k, f"r=1: {type(criterion).__name__} reduces to Tresca")
    return _cone(fc, r, criterion._section, k)


def coulomb_mohr_generalized(
    fc: float, r: float, beta: float, scale_exponent: int = 6
) -> LimitRealization:
    """Three-parameter Coulomb-Mohr generalization with free beta.

    The Coulomb-Mohr cone on the hexagonal section with an arbitrary
    deviatoric bias beta; choosing beta = (6/pi) atan(sqrt(3)/(2r+1))
    recovers the plain Coulomb-Mohr realization.  Raises DomainError when
    the cone's M or c is not positive for (r, beta), or beta is outside the convex interval.
    """
    cm = CoulombMohr(fc=fc, r=r)  # the same checks on fc and r
    return _cone(cm.fc, cm.r, (beta, 1.0), count(scale_exponent, "scale_exponent", 3))


# ---------------------------------------------------------------------------
# Deshpande-Fleck correspondence
# ---------------------------------------------------------------------------


def deshpande_fleck_to_bp(Y: float, alpha_df: float) -> YieldParams:
    """Seven-parameter realization of the Deshpande-Fleck foam surface.

    Exact correspondence (no limit): M = 2 alpha_df and
    c = pc = (Y/alpha_df) sqrt(1 + (alpha_df/3)^2), with the elliptic
    meridian (m = 2, alpha = 1) and circular section (beta = 1, gamma = 0).
    """
    Y, alpha_df = real(Y, "Y"), real(alpha_df, "alpha_df")
    if Y <= 0.0 or alpha_df <= 0.0:
        raise DomainError(f"Y and alpha_df must be positive, got Y={Y}, alpha_df={alpha_df}")
    pc = (Y / alpha_df) * math.hypot(1.0, alpha_df / 3.0)
    if pc > 1e6 * Y:
        _warnings.warn(
            "alpha_df is close to the pressure-insensitive foam limit; "
            "pc = c diverges and the surface degenerates towards von Mises",
            stacklevel=2,
        )
    return YieldParams(M=2.0 * alpha_df, pc=pc, c=pc, m=2.0, alpha=1.0, beta=1.0, gamma=0.0)


def bp_to_deshpande_fleck(M: float, pc: float, c: float) -> tuple[float, float]:
    """Inverse of :func:`deshpande_fleck_to_bp`; requires pc = c.

    Returns (Y, alpha_df) with alpha_df = M/2 and
    Y = c M / (2 sqrt(1 + (M/6)^2)).
    """
    M, pc, c = real(M, "M"), real(pc, "pc"), real(c, "c")
    if M <= 0.0 or pc <= 0.0 or c <= 0.0:
        raise DomainError(f"M, pc and c must be positive, got M={M}, pc={pc}, c={c}")
    if abs(pc - c) > 1e-12 * max(pc, c):
        raise ShapeMismatch(f"the foam correspondence needs pc = c, got pc={pc}, c={c}")
    Y = c * M / (2.0 * math.hypot(1.0, M / 6.0))
    return Y, M / 2.0


# ---------------------------------------------------------------------------
# Gurson-Tvergaard correspondence
# ---------------------------------------------------------------------------


def gurson_equivalent(
    f_void: float, sigma_m: float, q1: float = 1.5, q2: float = 1.0, q3: float = 2.25
) -> YieldParams:
    """Parameters matching the Gurson-Tvergaard surface at porosity f_void.

    Shares the hydrostatic intercepts +-pc exactly, with

        pc = c = sigma_m * 2/(3 q2) * acosh((1 + q3 f^2) / (2 f q1)),
        M  = sigma_m * 2/pc * sqrt(1 + q3 f^2 - 2 f q1),

    an elliptic meridian and a circular section.  Raises DomainError when
    the acosh argument drops below 1 or the M radicand is not positive
    (porosity too large for the given q factors).
    """
    f_void = real(f_void, "f_void")
    if not (0.0 < f_void < 1.0):
        raise DomainError(f"void fraction must lie in (0, 1), got {f_void}")
    f_void, sigma_m, q1, q2, q3 = _gurson_inputs(f_void=f_void, sigma_m=sigma_m, q1=q1, q2=q2, q3=q3)
    try:
        arg = (1.0 + q3 * f_void**2) / (2.0 * f_void * q1)
        if arg < 1.0:
            raise DomainError(f"acosh argument {arg:.6g} < 1: porosity too large for q1={q1}, q3={q3}")
        radicand = 1.0 + q3 * f_void**2 - 2.0 * f_void * q1
        if radicand <= 0.0:
            raise DomainError(
                f"pressure-sensitivity radicand {radicand:.6g} <= 0 at f={f_void}, q1={q1}, q3={q3}"
            )
        pc = sigma_m * 2.0 / (3.0 * q2) * math.acosh(arg)
        M = sigma_m * 2.0 / pc * math.sqrt(radicand)
    except ZeroDivisionError:  # q1 or q2 is 0, or 2 f q1, 3 q2 or pc underflows to 0
        raise DomainError(f"q1={q1}, q2={q2} and sigma_m={sigma_m} leave no cap size") from None
    return YieldParams(M=M, pc=pc, c=pc, m=2.0, alpha=1.0, beta=1.0, gamma=0.0)


def gurson_yield(
    stress, f_void: float, sigma_m: float, q1: float = 1.5, q2: float = 1.0, q3: float = 2.25
) -> float:
    """Gurson-Tvergaard yield function value at a principal stress state.

    (q/sigma_m)^2 + 2 q1 f cosh(-3 q2 p / (2 sigma_m)) - 1 - q3 f^2 with p
    the compression-positive mean pressure of this library.  Zero porosity
    reduces it to the von Mises form (q/sigma_m)^2 - 1.
    """
    f_void, sigma_m, q1, q2, q3 = _gurson_inputs(f_void=f_void, sigma_m=sigma_m, q1=q1, q2=q2, q3=q3)
    inv = invariants(stress)
    try:
        return (
            (inv.q / sigma_m) ** 2
            + 2.0 * q1 * f_void * math.cosh(-3.0 * q2 * inv.p / (2.0 * sigma_m))
            - 1.0
            - q3 * f_void**2
        )
    except OverflowError:  # q / sigma_m or the cosh argument past the float range
        raise DomainError(f"the Gurson-Tvergaard function overflows at p={inv.p:g}, q={inv.q:g}") from None


def gurson_meridian_q(
    p, f_void: float, sigma_m: float, q1: float = 1.5, q2: float = 1.0, q3: float = 2.25
):
    """Deviatoric radius of the Gurson-Tvergaard surface at pressure p.

    Vectorized in p; entries where the surface does not reach (cosh term too
    large) come back as NaN.  DomainError for sigma_m <= 0 or f_void outside [0, 1).
    """
    import numpy as np

    f_void, sigma_m, q1, q2, q3 = _gurson_inputs(f_void=f_void, sigma_m=sigma_m, q1=q1, q2=q2, q3=q3)
    p = _floats(p, "p")
    radicand = 1.0 + q3 * f_void**2 - 2.0 * q1 * f_void * np.cosh(3.0 * q2 * p / (2.0 * sigma_m))
    out = np.full(p.shape, math.nan)
    ok = radicand >= 0.0
    out[ok] = sigma_m * np.sqrt(radicand[ok])
    return out if p.ndim else float(out)


# ---------------------------------------------------------------------------
# Newman-Newman relation
# ---------------------------------------------------------------------------


def newman_strength(sigma3: float, fc: float) -> float:
    """Empirical confined compressive strength of concrete.

    sigma1 = fc (1 + 3.7 (sigma3/fc)^0.86) with sigma3 >= 0 the confining
    pressure and fc > 0 the uniaxial compressive strength, both as
    magnitudes.
    """
    sigma3, fc = real(sigma3, "sigma3"), real(fc, "fc")
    if fc <= 0.0:
        raise DomainError(f"fc must be positive, got {fc}")
    if sigma3 < 0.0:
        raise DomainError(f"confinement must be nonnegative, got {sigma3}")
    return fc * (1.0 + 3.7 * (sigma3 / fc) ** 0.86)


def newman_invariants(sigma3: float, fc: float) -> tuple[float, float, float]:
    """(p, q, theta) of the Newman-Newman failure state at confinement sigma3.

    The triaxial compression state (-sigma1, -sigma3, -sigma3) in the
    tension-positive convention maps to p = (sigma1 + 2 sigma3)/3,
    q = sigma1 - sigma3 and theta = pi/3.
    """
    s1 = newman_strength(sigma3, fc)
    return (s1 + 2.0 * sigma3) / 3.0, s1 - sigma3, math.pi / 3.0
