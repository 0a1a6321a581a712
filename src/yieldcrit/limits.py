"""Reductions to classical criteria and comparison oracles.

The seven-parameter criterion reduces to the classical criteria of
von Mises, Drucker-Prager, Tresca, modified Tresca, Coulomb-Mohr and
modified Cam-clay in limit situations.  Several of those limits send
pc to infinity; here the infinite limits are realized with a finite
surrogate pc = 10^k times the reference strength, which reproduces the
uniaxial strengths with a relative error of order 10^-k.  Corner-case
parameter values (alpha = 0, gamma = 1) are replaced by their limit-mode
surrogates and the substitutions are recorded as warnings.

Also provided: the parameter correspondence with the Deshpande-Fleck foam
surface, equivalent-parameter construction against the Gurson-Tvergaard
porous-metal criterion, and the Newman-Newman empirical triaxial strength
relation for concrete.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from .criterion import Criterion, YieldParams
from .errors import DomainError, ShapeMismatch
from .invariants import STRESS_MAX, invariants

_GAMMA_LIMIT = 1.0 - 1e-9


def _alpha_corner(k: int) -> float:
    # The alpha = 0 corner surrogate must shrink with the pc surrogate:
    # the meridian error it introduces scales like alpha/Phi with
    # Phi ~ 10^-k at the strength states, so a fixed delta would dominate
    # the 10^-k error budget of the realization.
    return 10.0 ** -(k + 6)


def _require_finite(**values):
    """DomainError naming the first of the inputs that is not a finite number."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def _gurson_inputs(**values):
    """DomainError unless every input is finite and the matrix flow stress positive."""
    _require_finite(**values)
    if values["sigma_m"] <= 0.0:
        raise DomainError(f"matrix flow stress must be positive, got {values['sigma_m']}")


@dataclass(frozen=True)
class _TensileStrength:
    """A pressure-insensitive criterion; ft > 0 is the uniaxial strength."""

    ft: float

    def __post_init__(self):
        _require_finite(**vars(self))
        if self.ft <= 0.0:
            raise DomainError(f"ft must be positive, got {self.ft}")


@dataclass(frozen=True)
class _StrengthRatio:
    """A pressure-sensitive criterion; fc > 0 and r = fc/ft >= 1."""

    fc: float
    r: float

    def __post_init__(self):
        _require_finite(**vars(self))
        if self.fc <= 0.0:
            raise DomainError(f"fc must be positive, got {self.fc}")
        if self.r < 1.0:
            raise DomainError(f"r = fc/ft must be at least 1 for real materials, got {self.r}")


class VonMises(_TensileStrength):
    """Pressure-insensitive circle; ft is the uniaxial strength."""


class DruckerPrager(_StrengthRatio):
    """Cone with circular section; r = fc/ft >= 1."""


class Tresca(_TensileStrength):
    """Pressure-insensitive hexagon; ft is the uniaxial strength."""


class ModifiedTresca(_StrengthRatio):
    """Cone with hexagonal section; r = fc/ft >= 1."""


class CoulombMohr(_StrengthRatio):
    """Frictional hexagonal pyramid; r = fc/ft >= 1."""


@dataclass(frozen=True)
class ModifiedCamClay:
    """Elliptic cap criterion; exact special case, no limit involved."""

    M: float
    pc: float

    def __post_init__(self):
        _require_finite(**vars(self))
        if self.M <= 0.0 or self.pc <= 0.0:
            raise DomainError(f"M and pc must be positive, got M={self.M}, pc={self.pc}")


ClassicalCriterion = _TensileStrength | _StrengthRatio | ModifiedCamClay


@dataclass(frozen=True)
class LimitRealization:
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


def _exponent(scale_exponent) -> int:
    """The surrogate exponent k: a finite number of at least 3, as an int."""
    _require_finite(scale_exponent=scale_exponent)
    k = int(scale_exponent)
    if k < 3:
        raise DomainError(f"scale_exponent must be at least 3, got {scale_exponent}")
    return k


def _scale(k: int, strength: float) -> float:
    """10^k, the factor of the surrogate pc = 10^k ``strength``; DomainError when
    that pc would exceed STRESS_MAX, the largest stress the library accepts."""
    try:
        scale = 10.0**k
    except OverflowError:
        scale = math.inf
    if scale * strength > STRESS_MAX:
        raise DomainError(f"scale_exponent={k} puts the surrogate pc above {STRESS_MAX:g}")
    return scale


def realize(criterion: ClassicalCriterion, scale_exponent: int = 6) -> LimitRealization:
    """Build the seven-parameter realization of a classical criterion.

    The infinite pc limits are replaced by pc = 10^scale_exponent times
    the reference strength, so uniaxial strengths are reproduced with a
    relative error of order 10^-scale_exponent (k >= 3 required).  A k
    that puts that pc above STRESS_MAX is a DomainError.
    """
    if not isinstance(criterion, ClassicalCriterion):
        raise DomainError(f"unknown classical criterion {criterion!r}")
    k = _exponent(scale_exponent)
    warn: list[str] = []

    if isinstance(criterion, ModifiedCamClay):
        # Exact: no limit surrogate needed.
        params = YieldParams(
            M=criterion.M, pc=criterion.pc, c=0.0, m=2.0, alpha=1.0, beta=1.0, gamma=0.0
        )
        return LimitRealization(params=params, scale_exponent=k, warnings=())

    if isinstance(criterion, _TensileStrength):
        ft = criterion.ft
        pc = _scale(k, ft) * ft
        if isinstance(criterion, VonMises):
            M = 2.0 * ft / pc
            gamma = 0.0
        else:
            M = math.sqrt(3.0) * ft / pc
            gamma = _GAMMA_LIMIT
            warn.append("gamma -> 1 realized as 1-1e-9 (piecewise-linear limit)")
        params = YieldParams(M=M, pc=pc, c=pc, m=2.0, alpha=1.0, beta=1.0, gamma=gamma)
        return LimitRealization(params=params, scale_exponent=k, warnings=tuple(warn))

    # The remaining three share the Drucker-Prager meridian structure:
    # alpha = 0 -> delta, finite c, pc = fc * m -> infinity via m = 10^k.
    fc, r = criterion.fc, criterion.r
    if r == 1.0:
        # c = 2 fc / (3 (r-1)) degenerates; the criterion is pressure
        # insensitive and reduces to its r = 1 counterpart.
        if isinstance(criterion, DruckerPrager):
            sub = realize(VonMises(ft=fc), scale_exponent=k)
            note = "r=1: Drucker-Prager reduces to von Mises"
        else:
            sub = realize(Tresca(ft=fc), scale_exponent=k)
            note = f"r=1: {type(criterion).__name__} reduces to Tresca"
        return LimitRealization(
            params=sub.params, scale_exponent=k, warnings=(note,) + sub.warnings
        )

    if isinstance(criterion, DruckerPrager):
        M = 3.0 * (r - 1.0) / (math.sqrt(2.0) * (r + 1.0))
        c = 2.0 * fc / (3.0 * (r - 1.0))
        beta, gamma = 1.0, 0.0
    elif isinstance(criterion, ModifiedTresca):
        M = 3.0 * math.sqrt(3.0) * (r - 1.0) / (2.0 * math.sqrt(2.0) * (r + 1.0))
        c = 2.0 * fc / (3.0 * (r - 1.0))
        beta, gamma = 1.0, _GAMMA_LIMIT
        warn.append("gamma -> 1 realized as 1-1e-9 (piecewise-linear limit)")
    else:  # Coulomb-Mohr
        beta = (6.0 / math.pi) * math.atan(math.sqrt(3.0) / (2.0 * r + 1.0))
        return coulomb_mohr_generalized(fc, r, beta, k)

    scale = _scale(k, fc)
    alpha = _alpha_corner(k)
    warn.append(f"alpha = 0 realized as {alpha:g} (corner limit)")
    params = YieldParams(
        M=M, pc=scale * fc, c=c, m=scale, alpha=alpha, beta=beta, gamma=gamma
    )
    return LimitRealization(params=params, scale_exponent=k, warnings=tuple(warn))


def coulomb_mohr_generalized(
    fc: float, r: float, beta: float, scale_exponent: int = 6
) -> LimitRealization:
    """Three-parameter Coulomb-Mohr generalization with free beta.

    Uses the Coulomb-Mohr M and c expressions with an arbitrary deviatoric
    bias beta; choosing beta = (6/pi) atan(sqrt(3)/(2r+1)) recovers the
    plain Coulomb-Mohr realization.  Raises DomainError when the M or c
    expressions are not positive for the given (r, beta).
    """
    CoulombMohr(fc=fc, r=r)  # the same checks on fc and r
    _require_finite(beta=beta)
    k = _exponent(scale_exponent)
    # the two projections that enter the Coulomb-Mohr M and c expressions
    c1, c2 = math.cos(beta * math.pi / 6.0), math.cos(beta * math.pi / 6.0 - math.pi / 3.0)
    den = 3.0 * r * c2 - 3.0 * c1
    if den <= 0.0:
        raise DomainError(
            f"c denominator 3 r cos(beta pi/6 - pi/3) - 3 cos(beta pi/6) = {den:.6g} "
            f"is not positive for r={r}, beta={beta}"
        )
    M = 3.0 * (r * c2 - c1) / (math.sqrt(2.0) * (r + 1.0))
    c = fc * (c2 + c1) / den
    if M <= 0.0 or c <= 0.0:
        raise DomainError(f"M={M:.6g}, c={c:.6g} not positive for r={r}, beta={beta}")
    scale = _scale(k, fc)
    alpha = _alpha_corner(k)
    params = YieldParams(
        M=M, pc=scale * fc, c=c, m=scale, alpha=alpha, beta=beta, gamma=_GAMMA_LIMIT
    )
    return LimitRealization(
        params=params,
        scale_exponent=k,
        warnings=(
            "gamma -> 1 realized as 1-1e-9 (piecewise-linear limit)",
            f"alpha = 0 realized as {alpha:g} (corner limit)",
        ),
    )


# ---------------------------------------------------------------------------
# Deshpande-Fleck correspondence
# ---------------------------------------------------------------------------


def deshpande_fleck_to_bp(Y: float, alpha_df: float) -> YieldParams:
    """Seven-parameter realization of the Deshpande-Fleck foam surface.

    Exact correspondence (no limit): M = 2 alpha_df and
    c = pc = (Y/alpha_df) sqrt(1 + (alpha_df/3)^2), with the elliptic
    meridian (m = 2, alpha = 1) and circular section (beta = 1, gamma = 0).
    """
    _require_finite(Y=Y, alpha_df=alpha_df)
    if Y <= 0.0 or alpha_df <= 0.0:
        raise DomainError(f"Y and alpha_df must be positive, got Y={Y}, alpha_df={alpha_df}")
    pc = (Y / alpha_df) * math.sqrt(1.0 + (alpha_df / 3.0) ** 2)
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
    _require_finite(M=M, pc=pc, c=c)
    if M <= 0.0 or pc <= 0.0 or c <= 0.0:
        raise DomainError(f"M, pc and c must be positive, got M={M}, pc={pc}, c={c}")
    if abs(pc - c) > 1e-12 * max(pc, c):
        raise ShapeMismatch(f"the foam correspondence needs pc = c, got pc={pc}, c={c}")
    Y = c * M / (2.0 * math.sqrt(1.0 + (M / 6.0) ** 2))
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
    if not (0.0 < f_void < 1.0):
        raise DomainError(f"void fraction must lie in (0, 1), got {f_void}")
    _gurson_inputs(sigma_m=sigma_m, q1=q1, q2=q2, q3=q3)
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
    return YieldParams(M=M, pc=pc, c=pc, m=2.0, alpha=1.0, beta=1.0, gamma=0.0)


def gurson_yield(
    stress, f_void: float, sigma_m: float, q1: float = 1.5, q2: float = 1.0, q3: float = 2.25
) -> float:
    """Gurson-Tvergaard yield function value at a principal stress state.

    (q/sigma_m)^2 + 2 q1 f cosh(-3 q2 p / (2 sigma_m)) - 1 - q3 f^2 with p
    the compression-positive mean pressure of this library.  Zero porosity
    reduces it to the von Mises form (q/sigma_m)^2 - 1.
    """
    _gurson_inputs(f_void=f_void, sigma_m=sigma_m, q1=q1, q2=q2, q3=q3)
    inv = invariants(stress)
    return (
        (inv.q / sigma_m) ** 2
        + 2.0 * q1 * f_void * math.cosh(-3.0 * q2 * inv.p / (2.0 * sigma_m))
        - 1.0
        - q3 * f_void**2
    )


def gurson_meridian_q(
    p, f_void: float, sigma_m: float, q1: float = 1.5, q2: float = 1.0, q3: float = 2.25
):
    """Deviatoric radius of the Gurson-Tvergaard surface at pressure p.

    Vectorized in p; entries where the surface does not reach (cosh term
    too large) come back as NaN.  Raises DomainError for sigma_m <= 0.
    """
    _gurson_inputs(f_void=f_void, sigma_m=sigma_m, q1=q1, q2=q2, q3=q3)
    p = np.asarray(p, dtype=float)
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
    _require_finite(sigma3=sigma3, fc=fc)
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
