"""Meridian, deviatoric and biaxial sections of a yield surface.

Sampling strategies:

  * meridian: q = q_surface(p, theta) on a uniform p grid over the cap,
    all radii in one batched surface-radius call;
  * deviatoric: the polar curve r(theta) = q_surface(at_p, theta) on the
    fundamental sector [0, pi/3], again one batched call, expanded to the
    full deviatoric plane by the six-fold symmetry of isotropy in one
    gather and two products;
  * biaxial (sigma3 = 0): convex ray-shooting from an interior point.
    Convexity of a certified criterion makes the sublevel set convex, so
    each ray crosses the surface exactly once.  All rays are resolved
    together, each step one batch evaluation of F over the rays still in
    play: one batch of doubling steps brackets every crossing, and then
    each step tries the midpoint of each bracket plus a chord and a secant
    root that the convexity of F places on either side of the crossing,
    until the bracket is two adjacent floats (about ten steps for 200 rays,
    where bisection took about 55).  A batched probe along every ray checks
    the one-crossing contract: NonConvexSlice if it fails, UnboundedDomain
    if it fails only within F's own rounding.  The interior point
    is the minimum of F along the diagonal sigma1 = sigma2, found by a
    bounded Brent search ported from scipy's ``minimize_scalar(...,
    method="bounded")`` step for step, so this module needs no scipy.

The sector grid and the ray fan depend only on n: each is computed once
per n, read-only, and kept for the last four n, so the cache's memory is
bounded.

Every emitted sample satisfies the yield condition to a normalized
residual of 1e-10 or better.  Curves serialize to CSV (with a '#' header
echoing the parameter JSON) or to a self-contained SVG.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .criterion import CapMeridian, Criterion, _yield_body, surface_q_array, yield_value
# Unused here; kept because perfbench's --trace 1 wraps sections.surface_q and .invariants by name.
from .criterion import surface_q  # noqa: F401
from .errors import DomainError, EmptySlice, NonConvexSlice, OutsideCap, UnboundedDomain, _typed, count, real
from .invariants import _THETA_MAX, FLOAT, STRESS_MAX, Record, _check_stress, _floats, _invariant_body, _state
from .invariants import invariants  # noqa: F401


class SectionCurve(Record):
    """An ordered planar sample of one yield-surface section."""

    kind: str
    samples: np.ndarray  # (n, 2)
    xlabel: str
    ylabel: str
    params_echo: tuple[tuple[str, object], ...]


def _echo(crit: Criterion) -> tuple[tuple[str, object], ...]:
    return tuple(crit.to_dict().items())


def normalized_residual(crit: Criterion, stress) -> float:
    """|F| normalized by the local magnitude of the competing terms."""
    F = yield_value(stress, crit)
    if math.isinf(F):
        return math.inf
    p, q = _state(stress)[1][:2]
    mer = crit.meridian
    f = mer.f(p)
    floor = 0.01 * mer.pc if isinstance(mer, CapMeridian) else 0.01 * mer.Gamma * (abs(p) + mer.c)
    s0 = max(crit.B * q, abs(f), floor, 1e-300)
    return abs(F) / s0


def sample_meridian(
    crit: Criterion, theta: float, n: int, p_range: tuple[float, float] | None = None
) -> SectionCurve:
    """Sample the meridian section q(p) at fixed Lode angle.

    n >= 2 samples; the cap meridian is sampled on [-c, pc] (endpoints land
    exactly on the apices with q = 0).  A linear meridian has no finite cap,
    so an explicit ``p_range`` is required there.  A ``p_range`` must run
    from low to high (DomainError otherwise), and a sample where the surface
    has no radius is NaN; EmptySlice when no sample has one.
    """
    _typed("sample_meridian", (crit, Criterion))
    n = count(n, "n", 2)
    if p_range is None:
        if not isinstance(crit.meridian, CapMeridian):
            raise UnboundedDomain(
                "linear meridian has an unbounded domain; pass an explicit p_range"
            )
        p_range = (-crit.meridian.c, crit.meridian.pc)
    if not (isinstance(p_range, (tuple, list)) and len(p_range) == 2):
        raise DomainError(f"p_range must be a pair (low, high), got {p_range!r}")
    lo, hi = real(p_range[0], "each end of p_range"), real(p_range[1], "each end of p_range")
    if not lo < hi:
        raise DomainError(f"p_range must run from low to high, got {(lo, hi)}")
    ps = np.linspace(lo, hi, n)
    qs = surface_q_array(ps, theta, crit)
    if np.isnan(qs).all():
        raise EmptySlice(f"no sample of p_range {(lo, hi)} lies on the surface; the section is empty")
    samples = np.column_stack([ps, qs])
    return SectionCurve(
        kind="meridian", samples=samples, xlabel="p", ylabel="q", params_echo=_echo(crit)
    )


@functools.lru_cache(maxsize=4)
def _sector_grid(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n angles theta in [0, pi/3] and, per point of the closed curve over the full
    deviatoric plane, the index of its radius and its (cos, sin), all read-only.  Sectors
    alternate direct and mirrored copies; their joints (phi = 2 pi is phi = 0) appear once."""
    thetas = np.linspace(0.0, _THETA_MAX, n)
    sector = np.arange(6)[:, None]
    odd = sector % 2 == 1
    phis = sector * _THETA_MAX + np.where(odd, _THETA_MAX - thetas[::-1], thetas)
    curve = np.delete(np.arange(6 * n), [*range(n, 6 * n, n), 6 * n - 1])
    at = np.where(odd, np.arange(n)[::-1], np.arange(n)).ravel()[curve]
    cs = np.stack([np.cos(phis), np.sin(phis)], axis=-1).reshape(-1, 2)[curve]
    thetas.flags.writeable = at.flags.writeable = cs.flags.writeable = False
    return thetas, at, cs


def _six_fold(radii: np.ndarray) -> np.ndarray:
    """The closed curve of the sector radii r(theta) at the angles of :func:`_sector_grid`."""
    _, at, cs = _sector_grid(len(radii))
    return radii[at, None] * cs


def sample_deviatoric(
    crit: Criterion, at_p: float, n: int, normalize: bool = False
) -> SectionCurve:
    """Sample the deviatoric section at fixed pressure.

    Computes r(theta) = q_surface at n >= 2 angles of the fundamental sector
    and reflects it through the six-fold symmetry into a closed curve over
    the full deviatoric plane (Cartesian coordinates, triaxial-extension
    meridian along +x).  ``normalize`` divides by the radius at theta = pi/3 so
    different shapes coincide at triaxial compression.
    """
    _typed("sample_deviatoric", (crit, Criterion))
    at_p, n = real(at_p, "at_p"), count(n, "n", 2)
    if isinstance(crit.meridian, CapMeridian):
        phi = crit.meridian._place(at_p, FLOAT)[0]
        if not (0.0 < phi < 1.0):
            raise OutsideCap(f"p={at_p} has Phi={phi:.6g} outside (0, 1)")
    radii = surface_q_array(at_p, _sector_grid(n)[0], crit)
    if np.isnan(radii).any():
        raise EmptySlice(f"p={at_p} lies beyond the apex of the meridian; the section is empty")
    if normalize:
        if not radii[-1] > 0.0:
            raise DomainError(f"p={at_p} is the apex of the meridian; no radius to normalize by")
        radii = radii / radii[-1]
    samples = _six_fold(radii)
    return SectionCurve(
        kind="deviatoric", samples=samples, xlabel="x", ylabel="y", params_echo=_echo(crit)
    )


def _slice_terms(crit: Criterion, x: np.ndarray, y: np.ndarray):
    """(f(p), q, g(theta), hydrostatic) at the finite points (x, y, 0) of the sigma3 = 0 slice."""
    p, q, theta, hydrostatic = _invariant_body(x, y, 0.0, np)
    return crit.meridian._jet(crit.meridian._place(p, np), np)[0], q, crit.shape._jet(np, theta)[0], hydrostatic


def _slice_F(crit: Criterion, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """F at the points (x, y, 0) of the sigma3 = 0 slice, in one batch, with
    the DomainError of :func:`yield_value_array` for a stress past STRESS_MAX."""
    # the largest magnitude is NaN if any component is
    if not np.maximum.reduce(np.abs(np.concatenate((x, y))), initial=0.0) <= STRESS_MAX:
        _check_stress(np.column_stack([x, y, np.zeros_like(x)]))
    return _yield_body(*_slice_terms(crit, x, y), crit, np)


# Lode angles at which a cone's slice is tested for a direction that never leaves it
_CONE_THETAS = np.linspace(0.0, _THETA_MAX, 241)
_CONE_COS = np.cos(_CONE_THETAS)


def _unbounded(crit: Criterion) -> bool:
    """Whether the sigma3 = 0 slice of ``crit`` is unbounded; only that of a cone
    (a linear meridian with A = 0) can be.  Far along a plane-stress direction
    F grows as q (B / g(theta) - Gamma p / q), with p / q = (2/3) cos(theta -
    2 pi k / 3) for the principal k that is zero, largest at k = 0: the slice is
    unbounded iff 1.5 B <= Gamma g(theta) cos(theta) for some theta in [0, pi/3].
    On a convex shape the largest g(theta) cos(theta) is at theta = 0, an angle tested."""
    if crit.meridian.kind == "bp" or crit.A != 0.0:
        return False
    reach = crit.shape._jet(np, _CONE_THETAS)[0] * _CONE_COS
    return bool(1.5 * crit.B <= crit.meridian.Gamma * reach.max())


def _biaxial_center(crit: Criterion) -> tuple[float, float]:
    """Interior point of the sigma3 = 0 slice, found on the diagonal;
    UnboundedDomain when the slice is unbounded (see :func:`_unbounded`)."""
    if _unbounded(crit):
        raise UnboundedDomain(
            "the sigma3 = 0 slice is unbounded: F falls without bound along a compressive direction "
            "of this cone (1.5 B <= Gamma g(theta) cos(theta))"
        )
    if crit.meridian.kind == "bp":
        # p = -2s/3 along (s, s, 0); the cap bounds the search bracket.  Each end steps 1e-9 of the span
        # inward, but at most half its distance from the origin, unless it is the origin (c = 0).
        s_lo, s_hi = -1.5 * crit.meridian.pc, 1.5 * crit.meridian.c
        step = 1e-9 * (s_hi - s_lo)
        s_lo += min(step, -0.5 * s_lo)
        s_hi -= min(step, 0.5 * s_hi) if s_hi > 0.0 else step
    else:
        s_lo, s_hi = -1e3 * crit.meridian.scale, 1.5 * crit.meridian.c
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


# The first _LADDER doubling rungs of every ray take one batch.
_LADDER = 16
_RUNGS = 2.0 ** np.arange(_LADDER)
# Stand-ins for a chord or secant root outside the bracket, as fractions
# of it (the midpoint, last, is always inside).
_QUARTERS = np.array([[0.25], [0.75], [0.5]])
# Chord and secant roots are moved this far outward (2 to 4 ulp).
_DOWN, _UP = 1.0 - 2.0**-51, 1.0 + 2.0**-51
_PROBES = np.linspace(0.05, 0.95, 19)
# F's rounding is taken to be at most this times A q^2 + B q / g + |f(p)|, the magnitudes of its terms
_ROUNDING = 8.0 * np.finfo(float).eps


def _narrow(ends: np.ndarray, pts: np.ndarray, fp: np.ndarray) -> None:
    """Shrink the brackets ends[:6] = (a, fa, b, fb, c, fc) in place by
    points pts (a column per ray) with F values fp: b becomes the smallest
    point with F > 0, c the next and a the largest point below b with
    F <= 0."""
    pts = np.concatenate((ends[0:6:2], pts))
    fp = np.concatenate((ends[1:6:2], fp))
    pos = fp > 0.0
    above = np.where(pos, pts, math.inf)
    hi = above.argmin(axis=0)
    m = np.arange(pts.shape[1])
    b = pts[hi, m]
    nxt = np.where(above > b, above, math.inf).argmin(axis=0)
    lo = np.where(pos | (pts >= b), -math.inf, pts).argmax(axis=0)
    idx = np.array([lo, hi, nxt])
    ends[0:6:2] = pts[idx, m]
    ends[1:6:2] = fp[idx, m]


def _ray_crossings(
    crit: Criterion, cx: float, cy: float, d: np.ndarray, t0: float
) -> np.ndarray:
    """F = 0 crossing t > 0 along each ray (cx, cy) + t d[j], d of shape (n, 2).

    Per ray, the first of t0, 2 t0, 4 t0, ... with F > 0 is the upper end
    of a bracket and the rung below it (or 0) the lower end.  The first
    _LADDER rungs of all rays take one batch evaluation of F; a ray with no
    positive rung among them goes on doubling one batch at a time, up to
    200 rungs.  Then each step evaluates, in one batch over the rays still
    in play, three points per ray: the midpoint of the bracket, the root of
    the chord through its ends and the root of the secant through the two
    nearest points with F > 0.  Since F is convex, the chord root lies at
    or below the crossing and the secant root at or above it; each is
    nudged 2-4 ulp outward.  A root that falls outside the bracket is
    replaced by a quarter point of it; past a cap apex, where F = +inf at
    the upper end, both are, so such a ray quarters its bracket.  The
    bracket becomes the largest point with F <= 0 below the smallest point
    with F > 0, so it at least halves per step whether or not F is convex,
    and a ray stops when the midpoint rounds onto an end.
    """
    n = len(d)
    dx, dy = d[:, 0], d[:, 1]
    # -- doubling ----------------------------------------------------------
    rungs = t0 * _RUNGS  # t0 doubled k times, exactly
    x, y = cx + rungs * dx[:, None], cy + rungs * dy[:, None]
    # Doubling reaches a rung only after every rung below it, so the batch
    # stops short of the first rung past STRESS_MAX (where F would raise).
    safe = np.logical_and.accumulate(
        (np.abs(x) <= STRESS_MAX) & (np.abs(y) <= STRESS_MAX), axis=1
    )
    f_rung = np.full((n, _LADDER), math.nan)
    f_ev = _slice_F(crit, np.append(x[safe], cx), np.append(y[safe], cy))
    f_rung[safe], f_center = f_ev[:-1], f_ev[-1]
    rows = np.arange(n)
    k = np.argmax(f_rung > 0.0, axis=1)
    lo = np.maximum(k - 1, 0)
    a = np.where(k > 0, rungs[lo], 0.0)
    fa = np.where(k > 0, f_rung[rows, lo], f_center)
    b, fb = rungs[k], f_rung[rows, k]
    # the rung above the upper end, when it has F > 0, seeds the secant
    hi = np.minimum(k + 1, _LADDER - 1)
    fc = np.where((k < hi) & (f_rung[rows, hi] > 0.0), f_rung[rows, hi], math.inf)
    c = np.where(fc < math.inf, rungs[hi], math.inf)
    rays = np.flatnonzero(~(fb > 0.0))
    if rays.size:
        done = safe[rays].sum(axis=1)  # the next rung to try
        t = t0 * 2.0**done
        a[rays] = t / 2.0
        fa[rays] = np.where(done > 0, f_rung[rays, done - 1], f_center)
        for _ in range(200 - _LADDER):
            v = _slice_F(crit, cx + t * dx[rays], cy + t * dy[rays])
            out = v > 0.0
            b[rays[out]], fb[rays[out]] = t[out], v[out]
            rays, t, v = rays[~out], t[~out], v[~out]
            if rays.size == 0:
                break
            a[rays], fa[rays] = t, v
            t = 2.0 * t
        else:
            raise UnboundedDomain("ray never leaves the elastic range; slice is unbounded")
    # -- bracketing --------------------------------------------------------
    # one column per ray still in play: a, fa, b, fb, c, fc and its direction
    ends = np.array([a, fa, b, fb, c, fc, dx, dy])
    t = np.empty(n)
    rays = rows
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(200):
            a, fa, b, fb, c, fc = ends[:6]
            mid = 0.5 * (a + b)
            going = (mid != a) & (mid != b)
            if not going.all():
                t[rays[~going]] = np.where(a > 0.0, a, b)[~going]
                rays, mid, ends = rays[going], mid[going], ends[:, going]
                if rays.size == 0:
                    break
                a, fa, b, fb, c, fc = ends[:6]
            chord = (a - fa * (b - a) / (fb - fa)) * _DOWN
            secant = (b - fb * (c - b) / (fc - fb)) * _UP
            pts = np.array([chord, secant, mid])
            # F = +inf at b (past a cap apex) puts both roots outside
            pts = np.where((pts > a) & (pts < b), pts, a + (b - a) * _QUARTERS)
            fp = _slice_F(crit, (cx + pts * ends[6]).ravel(), (cy + pts * ends[7]).ravel())
            _narrow(ends, pts, fp.reshape(pts.shape))
    # rays still open after 200 steps, as bisection would leave them
    t[rays] = np.where(ends[0] > 0.0, ends[0], ends[2])
    # Convexity contract: F < 0 strictly between the center and the crossing.
    tp = (t[:, None] * _PROBES).ravel()
    px, py = cx + tp * np.repeat(dx, 19), cy + tp * np.repeat(dy, 19)
    fp = _slice_F(crit, px, py)
    if not np.all(fp < 0.0):
        bad = ~(fp < 0.0)
        ray = int(np.argmax(bad)) // 19
        where = f"along ray {ray} (direction {d[ray, 0]:.6g}, {d[ray, 1]:.6g})"
        f, q, g, hydrostatic = _slice_terms(crit, px[bad], py[bad])
        if np.all(fp[bad] < _ROUNDING * _yield_body(np.abs(f), q, g, hydrostatic, crit, np)):
            raise UnboundedDomain(
                f"F is within its own rounding {where}: the sigma3 = 0 slice reaches too far "
                "for floating point to tell its sign"
            )
        raise NonConvexSlice(f"F changed sign more than once {where}; the criterion is not convex")
    return t


@functools.lru_cache(maxsize=4)
def _ray_fan(n: int) -> np.ndarray:
    """The n unit directions (cos, sin)(2 pi j / n) of the biaxial rays, read-only."""
    phis = [2.0 * math.pi * j / n for j in range(n)]
    d = np.array([(math.cos(phi), math.sin(phi)) for phi in phis])
    d.flags.writeable = False
    return d


# F is +inf where g(theta) underflows to 0, and numpy's warning for B q / 0 adds nothing
@np.errstate(divide="ignore", invalid="ignore")
def sample_biaxial(crit: Criterion, n: int = 200, normalize: bool = False) -> SectionCurve:
    """Trace the biaxial yield locus {F(sigma1, sigma2, 0) = 0}.

    n >= 3 rays are shot from the interior minimum of F along the diagonal
    and resolved together to machine precision (see ``_ray_crossings``).
    ``normalize`` divides both axes by the computed uniaxial tensile
    intercept, which must be positive for the option to make sense.
    Raises NonConvexSlice when F changes sign more than once along a ray,
    and UnboundedDomain when it does so only within F's own rounding.
    """
    _typed("sample_biaxial", (crit, Criterion))
    n = count(n, "n", 3)
    s_center, _ = _biaxial_center(crit)
    scale = crit.meridian.scale
    d = _ray_fan(n)
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


def polygon_is_convex(points: np.ndarray) -> bool:
    """Cross-product sign test for a closed polygon given as (n, 2) rows.

    Degenerate (zero-length) edges are tolerated; the tolerance is 1e-9
    relative to the polygon's extent; points that are not (n, 2) numbers are a DomainError.
    """
    pts = _floats(points, "points")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError(f"points must be an (n, 2) array, got shape {pts.shape}")
    edges = np.roll(pts, -1, axis=0) - pts
    after = np.roll(edges, -1, axis=0)
    cross = edges[:, 0] * after[:, 1] - edges[:, 1] * after[:, 0]
    extent = float(np.max(np.abs(pts), initial=0.0)) or 1.0
    band = 1e-9 * extent * extent
    return bool(np.all(cross >= -band) or np.all(cross <= band))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def curve_to_csv(curve: SectionCurve) -> str:
    """CSV text: '#' header echoing the parameter JSON, then x,y rows."""
    lines = ["# " + json.dumps(dict(curve.params_echo))]
    lines.append(f"{curve.xlabel},{curve.ylabel}")
    for x, y in curve.samples:
        lines.append(f"{float(x)!r},{float(y)!r}")
    return "\n".join(lines) + "\n"


def curve_to_svg(curve: SectionCurve) -> str:
    """Self-contained 640 x 480 SVG with one closed path, auto-fit viewBox and axes."""
    pts = curve.samples[np.all(np.isfinite(curve.samples), axis=1)]
    if len(pts) == 0:
        raise EmptySlice(f"the {curve.kind} curve has no finite sample to draw")
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
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" '
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
