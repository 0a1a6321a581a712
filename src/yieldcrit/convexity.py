"""Convexity certification of yield criteria.

Convexity of the separable function F = A q^2 + B q/g(theta) + f(p) splits
into two scalar conditions:

  * the meridian condition f'' >= 0, which for the cap meridian reduces to
    (h')^2 - 2 h'' h >= 0 with h(Phi) = (Phi - Phi^m)(2(1-alpha)Phi+alpha);
  * the deviatoric curvature condition g^2 + 2 g'^2 - g g'' >= 0 together
    with g > 0 on [0, pi/3].

The quadratic term A q^2 (A >= 0) adds a constant positive-semidefinite
block to the deviatoric Hessian and never breaks convexity; conversely a
curvature violation cannot be compensated by it, because the rank-one
Hessian of q/g blows up like 1/q as the deviatoric origin is approached.

For the native shape the deviatoric condition is equivalent to the closed
interval 2 - bound(gamma) <= beta <= bound(gamma) (see
:func:`beta_bound`); for the power-law shape it reduces to a quadratic in
cos 3 theta whose nonnegativity gives the closed-form
:func:`powerlaw_beta_max`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criterion import (
    BOUNDARY_TOL,
    DELTA_PHI,
    CapMeridian,
    CosineLode,
    Criterion,
    GudehusArgyris,
    PowerLaw,
    WillamWarnke,
    beta_in_convex_interval,
    cap_h,
    cap_h1,
    cap_h2,
    lode_beta_bound,
)
from .errors import DegenerateState, DomainError
from .invariants import FLOAT, _lode_angle, _theta_in_range

# Grid densities; every scanned quantity is a smooth trigonometric or
# polynomial expression with few oscillations.
PHI_GRID_N = 2048
THETA_GRID_N = 2048

# Convexity bound for the native shape's beta, in (2, 4]: the deviatoric
# section is convex iff 2 - bound <= beta <= bound.
beta_bound = lode_beta_bound

def meridian_convexity_check(alpha: float, m: float, grid_n: int = PHI_GRID_N):
    """Grid check of (h')^2 - 2 h'' h >= 0 on (0, 1).

    Returns ``(ok, (worst_phi, worst_margin))`` where the margin is the raw
    minimum of (h')^2 - 2 h'' h.  Out-of-range (alpha, m) is reported as
    ``(False, (nan, -inf))`` before any grid evaluation.  For admissible
    parameters the condition holds identically, so ok is expected True.
    """
    if grid_n < 2:
        raise DomainError(f"grid_n must be at least 2, got {grid_n}")
    if not (0.0 < alpha < 2.0) or m <= 1.0:
        return False, (math.nan, -math.inf)
    phi = np.linspace(DELTA_PHI, 1.0 - DELTA_PHI, grid_n)
    h = cap_h(phi, m, alpha)
    h1 = cap_h1(phi, m, alpha)
    h2 = cap_h2(phi, m, alpha)
    margin = h1 * h1 - 2.0 * h2 * h
    i = int(np.argmin(margin))
    return bool(margin[i] >= -BOUNDARY_TOL), (float(phi[i]), float(margin[i]))

def deviatoric_curvature(theta, shape):
    """Curvature combination g^2 + 2 g'^2 - g g'' of a deviatoric shape.

    Evaluated from the hand-differentiated g' and g'' of each shape, so
    the sign near zero margin is not polluted by differencing noise.
    Nonnegative on [0, pi/3] (with g > 0) iff the deviatoric section is
    convex.
    """
    if not _theta_in_range(theta):
        raise DomainError(f"theta must lie in [0, pi/3], got {theta}")
    g = shape.g(theta)
    g1 = shape.dg(theta)
    g2 = shape.d2g(theta)
    out = g * g + 2.0 * g1 * g1 - g * g2
    return float(out) if np.ndim(theta) == 0 else out

def hessian_qg(s1: float, s2: float, shape) -> np.ndarray:
    """Closed-form Hessian of q/g(theta) in two deviatoric components.

    With m = (S2, -S1) the Hessian equals

        27/4 * (g^2 + 2 g'^2 - g g'') / (q^3 g^3) * outer(m, m),

    a rank-one matrix.  The mixed q-theta terms cancel identically, which
    is what makes this compact form possible.  Continuous across the
    deviatoric meridians (sin 3 theta = 0).  Raises DegenerateState at
    q = 0.
    """
    q2 = 3.0 * (s1 * s1 + s1 * s2 + s2 * s2)
    if q2 <= 0.0:
        raise DegenerateState("Hessian of q/g undefined at q = 0")
    q = math.sqrt(q2)
    s3 = -s1 - s2
    j2 = 0.5 * (s1 * s1 + s2 * s2 + s3 * s3)
    j3 = s1 * s2 * s3
    theta = _lode_angle(j2, j3, FLOAT)
    g = shape.g(theta)
    curv = deviatoric_curvature(theta, shape)
    mvec = np.array([s2, -s1])
    return 27.0 / 4.0 * curv / (q**3 * g**3) * np.outer(mvec, mvec)

def powerlaw_beta_max(n: float) -> float:
    """Largest convex beta for the power-law shape at exponent n.

    n/(9-2n) for 0 < n <= 11/3, and the vertex-analysis expression
    1 / (-1 + sqrt(1 + 9 (n-2)^2 / (n^2 (4n-13)))) beyond; the two branches
    agree at n = 11/3.
    """
    if n <= 0.0:
        raise DomainError(f"n must be positive, got {n}")
    if n <= 11.0 / 3.0:
        return n / (9.0 - 2.0 * n)
    return 1.0 / (-1.0 + math.sqrt(1.0 + 9.0 * (n - 2.0) ** 2 / (n * n * (4.0 * n - 13.0))))

def powerlaw_quadratic(x, beta: float, n: float):
    """Appendix-style quadratic in x = cos 3 theta for power-law convexity.

    a x^2 + b x + c with a = beta^2 (n^2 - 9), b = beta n (1+beta)(9-2n)
    and c = n^2 (1+beta)^2 + 9 beta^2 (1-n).  Nonnegative on [-1, 1] iff
    the deviatoric section is convex; the interval is symmetric so the
    sign of b is immaterial.
    """
    x = np.asarray(x, dtype=float)
    a = beta * beta * (n * n - 9.0)
    b = beta * n * (1.0 + beta) * (9.0 - 2.0 * n)
    c = n * n * (1.0 + beta) ** 2 + 9.0 * beta * beta * (1.0 - n)
    return a * x * x + b * x + c

def nonconvex_demo(p: float, q: float, a: float, b: float) -> float:
    """Quartic fixture p^4/a^4 - p^2/a^2 + q^2/b^2 with a convex zero set.

    The zero level set is a convex drop through (0, 0) and (a, 0), but the
    function itself fails the midpoint convexity inequality (for instance
    along q = 0 between p = 0 and p = 0.4 a), demonstrating that a convex
    yield surface does not imply a convex, or even quasi-convex, yield
    function.
    """
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"a and b must be positive, got a={a}, b={b}")
    return (p / a) ** 4 - (p / a) ** 2 + (q / b) ** 2

def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None

@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of certifying a criterion.

    ``beta_interval`` is the convex beta interval of the native shape (or
    None for the other shapes, whose admissible parameter ranges appear in
    the notes).  The worst-witness pairs record where each grid scan was
    tightest; margins within +-1e-9 of zero are flagged as boundary cases
    in the notes rather than failed.  A scan with no finite witness (a
    linear meridian, or meridian parameters out of range) carries NaN or
    infinite values, which :meth:`to_dict` writes as None.
    """

    admissible: bool
    beta_interval: tuple[float, float] | None
    meridian_ok: bool
    meridian_worst: tuple[float, float]
    deviatoric_ok: bool
    deviatoric_worst: tuple[float, float]
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        """Plain JSON-safe dict; a NaN or infinite witness value becomes None."""
        return {
            "admissible": self.admissible,
            "beta_interval": list(self.beta_interval) if self.beta_interval else None,
            "meridian_ok": self.meridian_ok,
            "meridian_worst": {
                "phi": _finite_or_none(self.meridian_worst[0]),
                "margin": _finite_or_none(self.meridian_worst[1]),
            },
            "deviatoric_ok": self.deviatoric_ok,
            "deviatoric_worst": {
                "theta": _finite_or_none(self.deviatoric_worst[0]),
                "margin": _finite_or_none(self.deviatoric_worst[1]),
            },
            "notes": list(self.notes),
        }

def _scan_shape(shape) -> tuple[bool, tuple[float, float], list[str]]:
    """Grid scan of g > 0 and curvature >= 0 over [0, pi/3]."""
    notes: list[str] = []
    th = np.linspace(0.0, math.pi / 3.0, THETA_GRID_N)
    g = np.asarray(shape.g(th))
    if np.any(g <= 0.0) or not np.all(np.isfinite(g)):
        bad = np.where(~(np.isfinite(g) & (g > 0.0)))[0][0]
        notes.append("g(theta) is not positive throughout the sector")
        return False, (float(th[bad]), float(g[bad])), notes
    curv = np.asarray(deviatoric_curvature(th, shape))
    i = int(np.argmin(curv))
    worst = (float(th[i]), float(curv[i]))
    if curv[i] < -BOUNDARY_TOL:
        return False, worst, notes
    if abs(curv[i]) <= BOUNDARY_TOL:
        notes.append(f"deviatoric curvature at the convexity boundary (theta={th[i]:.6g})")
    return True, worst, notes

def certify(crit: Criterion) -> ConvexityReport:
    """Certify convexity of a criterion specification.

    Combines the per-shape parameter interval checks, the meridian grid
    check and a deviatoric curvature grid scan; the known-convex shapes
    are still grid-verified as defense in depth.  The quadratic A q^2 term
    never affects the verdict.
    """
    notes: list[str] = []
    beta_interval: tuple[float, float] | None = None

    # Meridian condition.
    if isinstance(crit.meridian, CapMeridian):
        mer = crit.meridian
        meridian_ok, meridian_worst = meridian_convexity_check(mer.alpha, mer.m)
        if not meridian_ok and math.isnan(meridian_worst[0]):
            notes.append("meridian parameters outside admissible ranges")
        elif abs(meridian_worst[1]) <= BOUNDARY_TOL:
            meridian_ok = True
            notes.append(
                f"meridian margin at the convexity boundary (Phi={meridian_worst[0]:.6g})"
            )
    else:
        # Linear meridian: f'' = 0, convex by construction.
        meridian_ok, meridian_worst = True, (math.nan, math.inf)
        notes.append("linear meridian is affine in p (f'' = 0)")

    # Shape parameter intervals.
    interval_ok = True
    shape = crit.shape
    if isinstance(shape, CosineLode):
        interval_ok, lo, hi = beta_in_convex_interval(shape.beta, shape.gamma)
        beta_interval = (lo, hi)
        if not interval_ok:
            notes.append(
                f"beta={shape.beta:.6g} outside the convex interval "
                f"[{lo:.6g}, {hi:.6g}] for gamma={shape.gamma:.6g}"
            )
        elif shape.beta < lo + BOUNDARY_TOL or shape.beta > hi - BOUNDARY_TOL:
            notes.append("beta at the convexity boundary")
    elif isinstance(shape, PowerLaw):
        bmax = powerlaw_beta_max(shape.n)
        if shape.beta > bmax + BOUNDARY_TOL:
            interval_ok = False
            notes.append(f"beta={shape.beta:.6g} exceeds beta_max={bmax:.6g} for n={shape.n:.6g}")
        elif shape.beta > bmax - BOUNDARY_TOL:
            notes.append("beta at the power-law convexity boundary")
    elif isinstance(shape, WillamWarnke):
        # Convex for every e in (0.5, 1]; the constructor already enforced it.
        notes.append("elliptic shape is convex for every admissible eccentricity")
    elif isinstance(shape, GudehusArgyris):
        if shape.k < 7.0 / 9.0 - BOUNDARY_TOL:
            notes.append(
                f"k={shape.k:.6g} is below the exact curvature boundary 7/9; "
                "the grid scan decides"
            )

    # Curvature grid scan (defense in depth for all shapes).
    deviatoric_ok, deviatoric_worst, scan_notes = _scan_shape(shape)
    notes.extend(scan_notes)
    deviatoric_ok = deviatoric_ok and interval_ok

    if crit.A > 0.0:
        notes.append("quadratic term A q^2 with A >= 0 preserves convexity")

    return ConvexityReport(
        admissible=bool(meridian_ok and deviatoric_ok),
        beta_interval=beta_interval,
        meridian_ok=bool(meridian_ok),
        meridian_worst=meridian_worst,
        deviatoric_ok=bool(deviatoric_ok),
        deviatoric_worst=deviatoric_worst,
        notes=tuple(notes),
    )
