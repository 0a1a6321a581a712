"""Meridian, deviatoric and biaxial sections of a yield surface.

Sampling strategies:

  * meridian: q = q_surface(p, theta) on a uniform p grid over the cap;
  * deviatoric: the polar curve r(theta) = q_surface(at_p, theta) on the
    fundamental sector [0, pi/3], expanded to the full deviatoric plane by
    the six-fold symmetry of isotropy;
  * biaxial (sigma3 = 0): convex ray-shooting from an interior point.
    Convexity of a certified criterion makes the sublevel set convex, so
    each ray crosses the surface exactly once and bisection resolves the
    crossing to machine precision.  All rays are resolved together: each
    doubling and bisection step is one batch evaluation of F over the rays
    still in play, and a batched probe along every ray checks the
    one-crossing contract (NonConvexSlice otherwise).  The interior point
    is the minimum of F along the diagonal sigma1 = sigma2, found by a
    bounded Brent search ported from scipy's ``minimize_scalar(...,
    method="bounded")`` step for step, so this module needs no scipy.

Every emitted sample satisfies the yield condition to a normalized
residual of 1e-10 or better.  Curves serialize to CSV (with a '#' header
echoing the parameter JSON) or to a self-contained SVG.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .criterion import CapMeridian, Criterion, surface_q, yield_value, yield_value_array
from .errors import EmptySlice, NonConvexSlice, OutsideCap, UnboundedDomain
from .invariants import _THETA_MAX, invariants


@dataclass(frozen=True)
class SectionCurve:
    """An ordered planar sample of one yield-surface section."""

    kind: str
    samples: np.ndarray  # (n, 2)
    xlabel: str
    ylabel: str
    params_echo: tuple[tuple[str, object], ...]

    def echo_dict(self) -> dict:
        return {k: v for k, v in self.params_echo}


def _echo(crit: Criterion) -> tuple[tuple[str, object], ...]:
    return tuple(crit.to_dict().items())


def normalized_residual(crit: Criterion, stress) -> float:
    """|F| normalized by the local magnitude of the competing terms."""
    inv = invariants(stress)
    f = crit.meridian.f(inv.p)
    F = yield_value(stress, crit)
    if math.isinf(F):
        return math.inf
    if isinstance(crit.meridian, CapMeridian):
        floor = 0.01 * crit.meridian.pc
    else:
        floor = 0.01 * crit.meridian.Gamma * (abs(inv.p) + crit.meridian.c)
    s0 = max(crit.B * inv.q, abs(f), floor, 1e-300)
    return abs(F) / s0


def sample_meridian(
    crit: Criterion, theta: float, n: int, p_range: tuple[float, float] | None = None
) -> SectionCurve:
    """Sample the meridian section q(p) at fixed Lode angle.

    The cap meridian is sampled on [-c, pc] (endpoints land exactly on the
    apices with q = 0).  A linear meridian has no finite cap, so an
    explicit ``p_range`` is required there.
    """
    if n < 2:
        raise ValueError(f"need at least 2 sample points, got {n}")
    if p_range is None:
        if not isinstance(crit.meridian, CapMeridian):
            raise UnboundedDomain(
                "linear meridian has an unbounded domain; pass an explicit p_range"
            )
        p_range = (-crit.meridian.c, crit.meridian.pc)
    ps = np.linspace(p_range[0], p_range[1], n)
    qs = []
    for p in ps:
        q = surface_q(float(p), theta, crit)
        qs.append(math.nan if q is None else q)
    samples = np.column_stack([ps, qs])
    return SectionCurve(
        kind="meridian", samples=samples, xlabel="p", ylabel="q", params_echo=_echo(crit)
    )


def sample_deviatoric(
    crit: Criterion, at_p: float, n: int, normalize: bool = False
) -> SectionCurve:
    """Sample the deviatoric section at fixed pressure.

    Computes r(theta) = q_surface on the fundamental sector and reflects
    it through the six-fold symmetry into a closed curve over the full
    deviatoric plane (Cartesian coordinates, triaxial-extension meridian
    along +x).  ``normalize`` divides by the radius at theta = pi/3 so
    different shapes coincide at triaxial compression.
    """
    if n < 2:
        raise ValueError(f"need at least 2 sample points, got {n}")
    if isinstance(crit.meridian, CapMeridian):
        phi = crit.meridian.phi(at_p)
        if not (0.0 < phi < 1.0):
            raise OutsideCap(f"p={at_p} has Phi={phi:.6g} outside (0, 1)")
    thetas = np.linspace(0.0, _THETA_MAX, n)
    radii = np.array([surface_q(at_p, float(t), crit) for t in thetas])
    if normalize:
        radii = radii / radii[-1]
    # Six-fold expansion: alternate direct and mirrored copies of the
    # fundamental sector, dropping duplicated joints.
    xs: list[float] = []
    ys: list[float] = []
    for sector in range(6):
        base = sector * _THETA_MAX
        if sector % 2 == 0:
            phis = base + thetas
            rr = radii
        else:
            phis = base + (_THETA_MAX - thetas[::-1])
            rr = radii[::-1]
        start = 1 if sector > 0 else 0
        xs.extend(rr[start:] * np.cos(phis[start:]))
        ys.extend(rr[start:] * np.sin(phis[start:]))
    # Last point coincides with the first (phi = 2 pi); drop it.
    samples = np.column_stack([xs[:-1], ys[:-1]])
    return SectionCurve(
        kind="deviatoric", samples=samples, xlabel="x", ylabel="y", params_echo=_echo(crit)
    )


def _slice_F(crit: Criterion, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """F at the points (x, y, 0) of the sigma3 = 0 slice, in one batch."""
    return yield_value_array(np.column_stack([x, y, np.zeros_like(x)]), crit)


def _biaxial_center(crit: Criterion) -> tuple[float, float]:
    """Interior point of the sigma3 = 0 slice, found on the diagonal."""
    if isinstance(crit.meridian, CapMeridian):
        # p = -2s/3 along (s, s, 0); the cap bounds the search bracket.
        s_lo = -1.5 * crit.meridian.pc
        s_hi = 1.5 * crit.meridian.c
        span = s_hi - s_lo
        s_lo += 1e-9 * span
        s_hi -= 1e-9 * span
        if span <= 0.0:
            raise EmptySlice("empty cap on the biaxial diagonal")
    else:
        ref = crit.meridian.c + 1.0
        s_lo, s_hi = -1e3 * ref, 1.5 * crit.meridian.c
    s, F = minimize_scalar(
        lambda s: yield_value((s, s, 0.0), crit), s_lo, s_hi,
        xatol=1e-12 * max(1.0, abs(s_lo), abs(s_hi)),
    )
    if not (F < 0.0):
        raise EmptySlice("no interior point with F < 0 on the sigma3 = 0 slice")
    return s, F


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


def minimize_scalar(fun, a: float, b: float, xatol: float) -> tuple[float, float]:
    """Minimum (x, fun(x)) of a scalar function on the finite bracket [a, b].

    Brent's bounded search: golden-section steps, with a parabolic step
    through the three best points whenever it lands inside the bracket.
    It takes the same steps, in the same floating-point order, as scipy's
    ``minimize_scalar(fun, bounds=(a, b), method="bounded",
    options={"xatol": xatol})``, so it returns the same bits.
    """
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    fx = ffulc = fnfc = fun(xf)
    num = 1
    rat = e = 0.0
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through (xf, fx), (nfc, fnfc), (fulc, ffulc)
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        # a step of at least tol1, the sign of rat (+ for rat == 0)
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = fun(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:  # scipy's default maxiter
            break
    return float(xf), float(fx)


def _ray_crossings(
    crit: Criterion, cx: float, cy: float, d: np.ndarray, t0: float
) -> np.ndarray:
    """F = 0 crossing t > 0 along each ray (cx, cy) + t d[j], d of shape (n, 2).

    Per ray: double t from t0 until F > 0, then bisect [0, t] until the
    midpoint rounds onto an end.  Each step evaluates F once, in one batch
    over the rays still in play.
    """
    dx, dy = d[:, 0], d[:, 1]

    def positive(t, rays):
        return _slice_F(crit, cx + t * dx[rays], cy + t * dy[rays]) > 0.0

    t_hi = np.full(len(d), float(t0))
    rays = np.arange(len(d))
    for _ in range(200):
        rays = rays[~positive(t_hi[rays], rays)]
        if rays.size == 0:
            break
        t_hi[rays] *= 2.0
    else:
        raise UnboundedDomain("ray never leaves the elastic range; slice is unbounded")
    t_lo = np.zeros(len(d))
    rays = np.arange(len(d))
    for _ in range(200):
        mid = 0.5 * (t_lo[rays] + t_hi[rays])
        going = (mid != t_lo[rays]) & (mid != t_hi[rays])
        rays, mid = rays[going], mid[going]
        if rays.size == 0:
            break
        out = positive(mid, rays)
        t_hi[rays[out]] = mid[out]
        t_lo[rays[~out]] = mid[~out]
    t = np.where(t_lo > 0.0, t_lo, t_hi)
    # Convexity contract: F < 0 strictly between the center and the crossing.
    tp = (t[:, None] * np.linspace(0.05, 0.95, 19)).ravel()
    fp = _slice_F(crit, cx + tp * np.repeat(dx, 19), cy + tp * np.repeat(dy, 19))
    if not np.all(fp < 0.0):
        bad = int(np.argmin(fp < 0.0)) // 19
        raise NonConvexSlice(
            f"F changed sign more than once along ray {bad} "
            f"(direction {d[bad, 0]:.6g}, {d[bad, 1]:.6g}); "
            "the criterion is not convex"
        )
    return t


def sample_biaxial(crit: Criterion, n: int = 200, normalize: bool = False) -> SectionCurve:
    """Trace the biaxial yield locus {F(sigma1, sigma2, 0) = 0}.

    n rays are shot from the interior minimum of F along the diagonal and
    resolved together by bisection to machine precision.  ``normalize``
    divides both axes by the computed uniaxial tensile intercept, which
    must be positive for the option to make sense.  Raises NonConvexSlice
    when F changes sign more than once along a ray.
    """
    if n < 3:
        raise ValueError(f"need at least 3 rays, got {n}")
    s_center, _ = _biaxial_center(crit)
    if isinstance(crit.meridian, CapMeridian):
        scale = crit.meridian.pc + crit.meridian.c
    else:
        scale = crit.meridian.c + 1.0
    phis = [2.0 * math.pi * j / n for j in range(n)]
    d = np.array([(math.cos(phi), math.sin(phi)) for phi in phis])
    t = _ray_crossings(crit, s_center, s_center, d, 1e-3 * scale)
    pts = s_center + t[:, None] * d
    # A ray that lands on a cap apex (the origin, for c = 0) stops a
    # rounding error short of the exact root, where F has a square root
    # singularity; snap to the root itself.
    near = np.max(np.abs(pts), axis=1) <= 1e-9 * scale
    if near.any() and _slice_F(crit, np.zeros(1), np.zeros(1))[0] == 0.0:
        pts[near] = 0.0
    if normalize:
        ft = _uniaxial_tensile_intercept(crit, scale)
        pts = pts / ft
    return SectionCurve(
        kind="biaxial",
        samples=pts,
        xlabel="sigma1" if not normalize else "sigma1/ft",
        ylabel="sigma2" if not normalize else "sigma2/ft",
        params_echo=_echo(crit),
    )


def _uniaxial_tensile_intercept(crit: Criterion, scale: float) -> float:
    if not (_slice_F(crit, np.zeros(1), np.zeros(1))[0] < 0.0):
        raise EmptySlice("origin is not inside the surface; no tensile intercept to normalize by")
    return float(_ray_crossings(crit, 0.0, 0.0, np.array([[1.0, 0.0]]), 1e-3 * scale)[0])


def polygon_is_convex(points: np.ndarray, tol: float = 1e-9) -> bool:
    """Cross-product sign test for a closed polygon given as (n, 2) rows.

    Degenerate (zero-length) edges are tolerated; the tolerance is
    relative to the polygon's extent.
    """
    pts = np.asarray(points, dtype=float)
    edges = np.roll(pts, -1, axis=0) - pts
    cross = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] - edges[:, 1] * np.roll(
        edges, -1, axis=0
    )[:, 0]
    extent = float(np.max(np.abs(pts))) or 1.0
    band = tol * extent * extent
    return bool(np.all(cross >= -band) or np.all(cross <= band))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def curve_to_csv(curve: SectionCurve) -> str:
    """CSV text: '#' header echoing the parameter JSON, then x,y rows."""
    lines = ["# " + json.dumps(curve.echo_dict())]
    lines.append(f"{curve.xlabel},{curve.ylabel}")
    for x, y in curve.samples:
        lines.append(f"{float(x)!r},{float(y)!r}")
    return "\n".join(lines) + "\n"


def curve_to_svg(curve: SectionCurve, width: int = 640, height: int = 480) -> str:
    """Self-contained SVG with one closed path, auto-fit viewBox and axes."""
    pts = curve.samples[np.all(np.isfinite(curve.samples), axis=1)]
    xs, ys = pts[:, 0], -pts[:, 1]  # SVG y axis points down
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0
    mx, my = 0.1 * dx, 0.1 * dy
    vb = (x0 - mx, y0 - my, dx + 2 * mx, dy + 2 * my)
    stroke = 0.004 * max(dx, dy)
    path = "M " + " L ".join(f"{float(x)!r} {float(y)!r}" for x, y in zip(xs, ys)) + " Z"
    font = 0.05 * max(dx, dy)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="{vb[0]!r} {vb[1]!r} {vb[2]!r} {vb[3]!r}">',
        f'<line x1="{vb[0]!r}" y1="0" x2="{vb[0] + vb[2]!r}" y2="0" '
        f'stroke="#888" stroke-width="{stroke / 2!r}"/>',
        f'<line x1="0" y1="{vb[1]!r}" x2="0" y2="{vb[1] + vb[3]!r}" '
        f'stroke="#888" stroke-width="{stroke / 2!r}"/>',
        f'<text x="{x1!r}" y="{-font / 2!r}" font-size="{font!r}">{curve.xlabel}</text>',
        f'<text x="{font / 2!r}" y="{y0!r}" font-size="{font!r}">{curve.ylabel}</text>',
        f'<path d="{path}" fill="none" stroke="#000" stroke-width="{stroke!r}"/>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
