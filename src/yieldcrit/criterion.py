"""The seven-parameter yield criterion, its generalizations and gradients.

The yield function has the separable form

    F(sigma) = A q^2 + B q / g(theta) + f(p)

where f is the meridian function and g the deviatoric (Lode-dependence)
function.  F < 0 inside the elastic range, F = 0 on the yield surface and
F > 0 (possibly +inf) outside.  The native form uses

    f(p) = -M pc sqrt((Phi - Phi^m) (2 (1-alpha) Phi + alpha)),
    Phi  = (p + c) / (pc + c),          f = +inf for Phi outside [0, 1],

    g(theta) = 1 / cos(beta pi/6 - acos(gamma cos 3 theta) / 3),

with the seven material parameters M, pc, c, m, alpha, beta, gamma.  The
closed cap [-c, pc] gives a finite elastic range in both tension and
compression.  Alternative deviatoric shapes (power-law, Willam-Warnke,
Gudehus-Argyris) and a linear (conical) meridian share the same machinery,
including the exact gradient decomposition

    dF/dsigma = a(p) I + b(theta) s_tilde + c(theta) s_tilde_perp.

Lode angle convention: theta in [0, pi/3], theta = 0 triaxial extension,
theta = pi/3 triaxial compression (arccos-based definition; some texts use
the opposite sign convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache
from typing import TYPE_CHECKING

from .errors import CornerCase, DegenerateState, DomainError, ValidationError
from .invariants import EPS_MERIDIAN, FLOAT, _invariant_body, _perp, _principal, _record
from .invariants import _theta_in_range, invariants_array, namespace
# Unused here; kept because perfbench's --trace 1 wraps criterion.invariants by name.
from .invariants import invariants  # noqa: F401

if TYPE_CHECKING:
    import numpy as np

# Gradient evaluation margin at the cap ends: inside Phi < DELTA_PHI or
# Phi > 1 - DELTA_PHI the square root in a(p) loses all precision and the
# apex limit must be used instead.
DELTA_PHI = 1e-10

# Margins within this band of zero are genuine convexity limits: a beta
# this close outside the native shape's convex interval still counts.
BOUNDARY_TOL = 1e-9

_SQRT15 = math.sqrt(1.5)


@cache
def _params(cls) -> tuple[str, ...]:
    """The parameter names of a record class: its fields annotated ``float``,
    in order, the one list of them (read by the finite check, the dict forms
    and the fit's parameter lookup)."""
    return tuple(f.name for f in fields(cls) if f.type == "float")


def _param_dict(record) -> dict:
    return {name: getattr(record, name) for name in _params(type(record))}


def _number(d: dict, name: str, default=None, of: str = "") -> float:
    """``d[name]`` as a float, ``default`` if absent; else a ValidationError naming the key."""
    if name not in d and default is None:
        raise ValidationError(f"missing parameter {name!r} for {of}")
    value = d.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} must be finite, got an integer too large for a float")


def _check_finite(record):
    """ValidationError unless every parameter of ``record`` is a finite number."""
    for name, value in _param_dict(record).items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


# ---------------------------------------------------------------------------
# Deviatoric shapes: g(theta) with hand-differentiated dg and d2g
# ---------------------------------------------------------------------------


class _Shape:
    """A deviatoric shape; its dict form is its kind and its parameters.
    ``g`` and ``dg`` read one body, ``_g(xp, theta, slope)``: g, or (g, dg)
    from one set of intermediates when ``slope`` is set.  ``convexity()``
    gives its exact convexity condition as (ok, signed margin, witness
    theta, note or None): the margin is the parameter's distance from the
    condition's boundary, and the witness where the condition binds.
    ``_partials(theta)`` gives dg/d(field) over an array of theta, by field."""

    # the convex beta interval, which only the native shape has
    beta_interval = None

    def g(self, theta):
        xp, th = namespace(theta)
        return self._g(xp, th, False)

    def dg(self, theta):
        xp, th = namespace(theta)
        return self._g(xp, th, True)[1]

    def to_dict(self) -> dict:
        return {"kind": self.kind, **_param_dict(self)}


@dataclass(frozen=True)
class CosineLode(_Shape):
    """Native deviatoric shape 1/cos(beta pi/6 - acos(gamma cos 3t)/3).

    gamma in [0, 1) smooths/sharpens the section (gamma -> 1 approaches a
    piecewise-linear section), beta biases it between the lower and upper
    convexity limits.  beta = 1, gamma = 0 is the circle.
    """

    beta: float
    gamma: float

    kind = "bp"

    def __post_init__(self):
        _check_finite(self)
        if not (0.0 <= self.gamma < 1.0):
            raise ValidationError(f"gamma must lie in [0, 1), got {self.gamma}")

    def _psi(self, xp, th):
        """(u, psi) with u = gamma cos 3t and psi = beta pi/6 - acos(u) / 3."""
        u = self.gamma * xp.cos(3.0 * th)
        return u, self.beta * math.pi / 6.0 - xp.arccos(u) / 3.0

    def _g(self, xp, th, slope):
        u, psi = self._psi(xp, th)
        cos_psi = xp.cos(psi)
        g = 1.0 / cos_psi
        if not slope:
            return g
        psi1 = -self.gamma * xp.sin(3.0 * th) / xp.sqrt(1.0 - u * u)
        return g, xp.tan(psi) * psi1 / cos_psi

    def _partials(self, theta):
        """dg/dpsi = g tan(psi) times dpsi/dbeta = pi/6 and
        dpsi/dgamma = cos 3t / (3 sqrt(1 - (gamma cos 3t)^2))."""
        import numpy as np

        c3 = np.cos(3.0 * theta)
        u, psi = self._psi(np, theta)
        g_psi = np.tan(psi) / np.cos(psi)
        return {"beta": g_psi * (math.pi / 6.0), "gamma": g_psi * c3 / (3.0 * np.sqrt(1.0 - u * u))}

    def d2g(self, theta):
        xp, th = namespace(theta)
        c3, s3 = xp.cos(3.0 * th), xp.sin(3.0 * th)
        u, psi = self._psi(xp, th)
        w = xp.sqrt(1.0 - u * u)
        g = 1.0 / xp.cos(psi)
        t = xp.tan(psi)
        psi1 = -self.gamma * s3 / w
        psi2 = -3.0 * self.gamma * c3 / w + 3.0 * self.gamma**3 * c3 * s3**2 / w**3
        return g * ((t * t + g * g) * psi1 * psi1 + t * psi2)

    @property
    def beta_interval(self) -> tuple[float, float]:
        return beta_in_convex_interval(self.beta, self.gamma)[1:]

    def convexity(self):
        """beta in [lo, hi] to within BOUNDARY_TOL (hi binds at theta = pi/3, lo at
        0), and g positive and finite at theta = 0 and pi/3: psi is monotone in
        cos 3 theta, so these are its extremes.  That fails only at gamma near 0
        within BOUNDARY_TOL of an end, where the margin is 1/g."""
        ok, lo, hi = beta_in_convex_interval(self.beta, self.gamma)
        margin, theta = min((hi - self.beta, math.pi / 3.0), (self.beta - lo, 0.0))
        if not ok:
            return ok, margin, theta, (
                f"beta={self.beta:.6g} outside the convex interval "
                f"[{lo:.6g}, {hi:.6g}] for gamma={self.gamma:.6g}"
            )
        for end in (0.0, math.pi / 3.0):
            g = self.g(end)
            if not 0.0 < g < math.inf:
                return False, 1.0 / g, end, "g(theta) is not positive throughout the sector"
        return ok, margin, theta, "beta at the convexity boundary" if margin < BOUNDARY_TOL else None


@dataclass(frozen=True)
class PowerLaw(_Shape):
    """Smooth deviatoric shape (1 + beta (1 + cos 3t))^(-1/n).

    Approaches (without reaching) the triangular section as beta grows; it
    cannot be stretched all the way to the lower convexity limit.
    """

    beta: float
    n: float

    kind = "power-law"

    def __post_init__(self):
        _check_finite(self)
        if self.beta < 0.0:
            raise ValidationError(f"beta must be nonnegative, got {self.beta}")
        if self.n <= 0.0:
            raise ValidationError(f"n must be positive, got {self.n}")

    def _v(self, xp, th):
        return 1.0 + self.beta * (1.0 + xp.cos(3.0 * th))

    def _g(self, xp, th, slope):
        v = self._v(xp, th)
        g = v ** (-1.0 / self.n)
        if not slope:
            return g
        v1 = -3.0 * self.beta * xp.sin(3.0 * th)
        return g, (-1.0 / self.n) * v ** (-1.0 / self.n - 1.0) * v1

    def _partials(self, theta):
        """dg/dbeta = -g (1 + cos 3t) / (n v) and dg/dn = g ln(v) / n^2."""
        import numpy as np

        v = self._v(np, theta)
        g = v ** (-1.0 / self.n)
        dn = g * np.log(v) / self.n**2
        return {"beta": -g * (1.0 + np.cos(3.0 * theta)) / (self.n * v), "n": dn}

    def d2g(self, theta):
        xp, th = namespace(theta)
        v = self._v(xp, th)
        v1 = -3.0 * self.beta * xp.sin(3.0 * th)
        v2 = -9.0 * self.beta * xp.cos(3.0 * th)
        e = -1.0 / self.n
        return e * (e - 1.0) * v ** (e - 2.0) * v1 * v1 + e * v ** (e - 1.0) * v2

    def convexity(self):
        """beta <= powerlaw_beta_max(n) to within BOUNDARY_TOL; the witness is where
        the quadratic of ``powerlaw_quadratic`` is least, at x = -cos 3 theta."""
        bmax = powerlaw_beta_max(self.n)
        a, b, _ = _powerlaw_coefficients(self.beta, self.n)
        x = max(-1.0, min(1.0, -b / (2.0 * a))) if a > 0.0 else (-1.0 if b > 0.0 else 1.0)
        margin, theta = bmax - self.beta, math.acos(-x) / 3.0
        if self.beta > bmax + BOUNDARY_TOL:
            note = f"beta={self.beta:.6g} exceeds beta_max={bmax:.6g} for n={self.n:.6g}"
            return False, margin, theta, note
        note = "beta at the power-law convexity boundary" if margin < BOUNDARY_TOL else None
        return True, margin, theta, note


def _powerlaw_coefficients(beta: float, n: float) -> tuple[float, float, float]:
    """(a, b, c) of the power-law convexity quadratic a x^2 + b x + c."""
    a = beta * beta * (n * n - 9.0)
    b = beta * n * (1.0 + beta) * (9.0 - 2.0 * n)
    c = n * n * (1.0 + beta) ** 2 + 9.0 * beta * beta * (1.0 - n)
    return a, b, c


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


@dataclass(frozen=True)
class WillamWarnke(_Shape):
    """Elliptic deviatoric interpolation with eccentricity e in (0.5, 1].

    e = 1 is the circle; e -> 0.5 approaches the triangular (lower
    convexity) limit.  Convex for every admissible e.  Normalized so that
    g(pi/3) = 1 and g(0) = e.
    """

    e: float

    kind = "willam-warnke"

    def __post_init__(self):
        _check_finite(self)
        if not (0.5 < self.e <= 1.0):
            raise ValidationError(f"e must lie in (0.5, 1], got {self.e}")

    def _parts(self, xp, u):
        """c2, t, r and g's numerator and denominator at u = cos theta."""
        c2 = 1.0 - self.e * self.e
        t = 2.0 * self.e - 1.0
        # rho is (2e - 1)^2 > 0 at u = 1/2, where rounding can take it just below 0
        r = xp.sqrt(xp.maximum(0.0, 4.0 * c2 * u * u + 5.0 * self.e * self.e - 4.0 * self.e))
        return c2, t, r, 2.0 * c2 * u + t * r, 4.0 * c2 * u * u + t * t

    def _g(self, xp, th, slope):
        u = xp.cos(th)
        parts = self._parts(xp, u)
        g = parts[3] / parts[4]
        if not slope:
            return g
        return g, self._du(u, *parts)[3] * (-xp.sin(th))

    def _partials(self, theta):
        """dg/de through ``_parts``: c2 = 1 - e^2, t = 2e - 1 and
        r^2 = 4 c2 u^2 + 5 e^2 - 4 e, with u = cos theta."""
        import numpy as np

        u = np.cos(theta)
        c2, t, r, num, den = self._parts(np, u)
        r_e = (5.0 * self.e - 2.0 - 4.0 * self.e * u * u) / r
        num_e = -4.0 * self.e * u + 2.0 * r + t * r_e
        den_e = 4.0 * t - 8.0 * self.e * u * u
        return {"e": (num_e * den - num * den_e) / den**2}

    def _du(self, u, c2, t, r, num, den):
        """(rho_u, num_u, den_u, dg/du) at u = cos theta from ``_parts``; theta
        derivatives follow by the chain rule."""
        rho_u = 8.0 * c2 * u
        num_u = 2.0 * c2 + t * rho_u / (2.0 * r)
        den_u = 8.0 * c2 * u
        return rho_u, num_u, den_u, (num_u * den - num * den_u) / den**2

    def d2g(self, theta):
        xp, th = namespace(theta)
        u = xp.cos(th)
        c2, t, r, num, den = self._parts(xp, u)
        rho_u, num_u, den_u, g_u = self._du(u, c2, t, r, num, den)
        num_uu = t * (8.0 * c2 / (2.0 * r) - rho_u * rho_u / (4.0 * r**3))
        den_uu = 8.0 * c2
        g_uu = (
            num_uu / den
            - (2.0 * num_u * den_u + num * den_uu) / den**2
            + 2.0 * num * den_u * den_u / den**3
        )
        s = xp.sin(th)
        return g_uu * s**2 + g_u * (-xp.cos(th))

    def convexity(self):
        """Convex for every admissible e: the margin is e - 1/2, and the witness
        theta = 0, the side that flattens towards the triangle as e -> 1/2."""
        return True, self.e - 0.5, 0.0, "elliptic shape is convex for every admissible eccentricity"


@dataclass(frozen=True)
class GudehusArgyris(_Shape):
    """Rational deviatoric shape 2k / (1 + k + (1-k) cos 3t), k in (0.777, 1].

    k = 1 is the circle.  The printed lower bound 0.777 slightly undershoots
    the exact convexity boundary k = 7/9; certification applies k >= 7/9
    (see :meth:`convexity`) and flags k in (0.777, 7/9) as inadmissible.
    """

    k: float

    kind = "gudehus-argyris"

    def __post_init__(self):
        _check_finite(self)
        if not (0.777 < self.k <= 1.0):
            raise ValidationError(f"k must lie in (0.777, 1], got {self.k}")

    def _d(self, xp, th):
        return 1.0 + self.k + (1.0 - self.k) * xp.cos(3.0 * th)

    def _g(self, xp, th, slope):
        d = self._d(xp, th)
        g = 2.0 * self.k / d
        if not slope:
            return g
        d1 = -3.0 * (1.0 - self.k) * xp.sin(3.0 * th)
        return g, -2.0 * self.k * d1 / d**2

    def _partials(self, theta):
        """dg/dk = 2 (1 + cos 3t) / D^2."""
        import numpy as np

        return {"k": 2.0 * (1.0 + np.cos(3.0 * theta)) / self._d(np, theta) ** 2}

    def d2g(self, theta):
        xp, th = namespace(theta)
        d = self._d(xp, th)
        d1 = -3.0 * (1.0 - self.k) * xp.sin(3.0 * th)
        d2 = -9.0 * (1.0 - self.k) * xp.cos(3.0 * th)
        return -2.0 * self.k * d2 / d**2 + 4.0 * self.k * d1 * d1 / d**3

    def convexity(self):
        """k >= 7/9 to within BOUNDARY_TOL: the curvature 4 k^2 (1 + k - 8 (1-k)
        cos 3 theta) / D^3 is least at the witness theta = 0, as k^2 (9k - 7) / 2."""
        margin = self.k - 7.0 / 9.0
        if self.k < 7.0 / 9.0 - BOUNDARY_TOL:
            return False, margin, 0.0, f"k={self.k:.6g} is below the exact curvature boundary 7/9"
        return True, margin, 0.0, "k at the convexity boundary 7/9" if margin < BOUNDARY_TOL else None


SHAPE_KINDS = {cls.kind: cls for cls in (CosineLode, PowerLaw, WillamWarnke, GudehusArgyris)}


def shape_from_dict(d: dict):
    """Build a deviatoric shape from its JSON dict form."""
    try:
        kind = d["kind"]
    except (KeyError, TypeError):
        raise ValidationError(f"deviatoric shape needs a 'kind' key, got {d!r}")
    try:
        cls = SHAPE_KINDS[kind]
    except KeyError:
        raise ValidationError(f"unknown deviatoric kind {kind!r}")
    args = {k: _number(d, k) for k in d if k != "kind"}
    try:
        return cls(**args)
    except TypeError as exc:
        raise ValidationError(f"bad parameters for deviatoric kind {kind!r}: {exc}")


# ---------------------------------------------------------------------------
# Convexity interval for the native shape (Eq. used by certification)
# ---------------------------------------------------------------------------


def beta_bound(gamma: float) -> float:
    """Upper end of the convex beta interval for the native shape.

    The deviatoric section of the native shape is convex exactly for
    2 - bound <= beta <= bound.  Takes values in (2, 4] for gamma in [0, 1),
    equal to 4 at gamma = 0 and decreasing towards 2 as gamma -> 1.
    """
    if not (0.0 <= gamma < 1.0):
        raise DomainError(f"gamma must lie in [0, 1), got {gamma}")
    z = (2.0 / 3.0) * (math.pi - math.acos(gamma))
    num = 1.0 - 2.0 * math.cos(z) - 2.0 * math.cos(z) ** 2
    den = 2.0 * math.sin(z) * (1.0 - math.cos(z))
    return 3.0 - (6.0 / math.pi) * math.atan(num / den)


def beta_in_convex_interval(beta: float, gamma: float) -> tuple[bool, float, float]:
    """(ok, lo, hi): the native shape's convex beta interval [lo, hi] at gamma,
    and whether beta lies in it to within BOUNDARY_TOL."""
    hi = beta_bound(gamma)
    lo = 2.0 - hi
    return lo - BOUNDARY_TOL <= beta <= hi + BOUNDARY_TOL, lo, hi


# ---------------------------------------------------------------------------
# Meridians
# ---------------------------------------------------------------------------


def _cap_factors(phi, m: float, alpha: float):
    """(Phi^m, Phi - Phi^m, 2 (1-alpha) Phi + alpha): the product of the last two
    is h(Phi), and f = -M pc sqrt(h) for Phi in [0, 1]."""
    phm = phi**m
    return phm, phi - phm, 2.0 * (1.0 - alpha) * phi + alpha


def _cap_h1(phi, m: float, alpha: float, d, lin):
    """dh/dPhi, from Phi and the factors d = Phi - Phi^m and lin of ``_cap_factors``."""
    return (1.0 - m * phi ** (m - 1.0)) * lin + 2.0 * (1.0 - alpha) * d


class _Meridian:
    """f(p) for a float and f_array(p) for an array, over one body ``_f(p, xp)``;
    ``kind`` names it in the dict form and ``scale`` is its stress scale.
    ``convexity()`` gives its exact convexity condition as (ok, signed
    margin, witness Phi, note or None), like a shape's.  For the fit, over an
    array of p: ``_fit_place`` gives what p and the ``_place_fields`` fix,
    then the penalty's distance outside the meridian and its partials;
    ``_fit_terms`` gives f and df from it; ``_s0_floor`` the floor of s0."""

    def f(self, p: float) -> float:
        """Meridian value; +inf outside a cap, DomainError for NaN p."""
        if math.isnan(p):
            raise DomainError(f"p must be a number, got {p}")
        return self._f(p, FLOAT)

    def f_array(self, p: np.ndarray) -> np.ndarray:
        """Meridian value over an array of pressures; +inf outside a cap."""
        import numpy as np

        return self._f(np.asarray(p, dtype=float), np)

    to_dict = _param_dict


@dataclass(frozen=True)
class CapMeridian(_Meridian):
    """Bounded meridian with tension apex at -c and compression apex at pc."""

    M: float
    pc: float
    c: float
    m: float
    alpha: float

    kind = "bp"

    def __post_init__(self):
        _check_finite(self)
        if self.M <= 0.0:
            raise ValidationError(f"M must be positive, got {self.M}")
        if self.pc <= 0.0:
            raise ValidationError(f"pc must be positive, got {self.pc}")
        if self.c < 0.0:
            raise ValidationError(f"c must be nonnegative, got {self.c}")
        if self.m <= 1.0:
            raise ValidationError(f"m must exceed 1, got {self.m}")
        if not (0.0 < self.alpha < 2.0):
            raise ValidationError(f"alpha must lie in (0, 2), got {self.alpha}")

    @property
    def scale(self) -> float:
        return self.pc + self.c

    def phi(self, p: float) -> float:
        return (p + self.c) / (self.pc + self.c)

    _place_fields = ("pc", "c")

    def _place(self, p, xp):
        """(Phi, Phi in [0, 1], ph = Phi there and 0.5 elsewhere)."""
        phi = (p + self.c) / (self.pc + self.c)
        inside = (phi >= 0.0) & (phi <= 1.0)
        return phi, inside, xp.where(inside, phi, 0.5)

    def _f(self, p, xp):
        _, inside, ph = self._place(p, xp)
        _, d, lin = _cap_factors(ph, self.m, self.alpha)
        root = xp.sqrt(xp.maximum(0.0, d * lin))
        return xp.where(inside, -self.M * self.pc * root, math.inf)

    def _fit_place(self, p, names):
        """((inside, ph, ln ph or None, 1 - 2 ph or None), (dist(Phi, [0, 1]),
        d(dist))): ln ph (0 where ph = 0) if m is in ``names``, 1 - 2 ph if alpha is."""
        import numpy as np

        phi, inside, ph = self._place(p, np)
        ln_ph = np.log(np.where(ph > 0.0, ph, 1.0)) if "m" in names else None
        tilt = 1.0 - 2.0 * ph if "alpha" in names else None
        ddist = {}
        if "pc" in names or "c" in names:
            side = np.where(phi < 0.0, -1.0, 1.0)
            ddist["pc"] = side * (-phi / self.scale)
            ddist["c"] = side * ((1.0 - phi) / self.scale)
        return (inside, ph, ln_ph, tilt), (np.maximum(0.0, np.maximum(-phi, phi - 1.0)), ddist)

    def _fit_terms(self, at, names):
        """f (+inf outside the cap) and, for each of ``names``, df with the
        branch held fixed (0 where h = 0, at a cap end), sharing h's factors."""
        import numpy as np

        inside, ph, ln_ph, tilt = at
        phm, d, lin = _cap_factors(ph, self.m, self.alpha)
        h = d * lin
        root = np.sqrt(np.maximum(0.0, h))
        Mpc = -self.M * self.pc
        f = np.where(inside, Mpc * root, math.inf)
        df = {}
        if not names:
            return f, df
        # df/dh = -M pc / (2 sqrt h), set to 0 where h <= 0
        positive = h > 0.0
        f_h = np.where(positive, Mpc / (2.0 * np.where(positive, root, 1.0)), 0.0)
        if "M" in names:
            df["M"] = -self.pc * root
        if "pc" in names or "c" in names:
            f_phi = f_h * _cap_h1(ph, self.m, self.alpha, d, lin) / self.scale
            df["pc"] = -self.M * root - f_phi * ph
            df["c"] = f_phi * (1.0 - ph)
        if "m" in names:
            df["m"] = -f_h * phm * ln_ph * lin
        if "alpha" in names:
            df["alpha"] = f_h * d * tilt
        return f, df

    def _s0_floor(self, bq):
        """The floor 0.01 pc of s0 = max(B q, |f|, floor) and its partials."""
        return 0.01 * self.pc, {"pc": 0.01}

    def df(self, p):
        """df/dp (a float or an array) on the open interior of the cap; caller guards the ends."""
        xp, p = namespace(p)
        return self._df(self.phi(p), xp)

    def _df(self, phi, xp):
        """df/dp at Phi, from h' = dh/dPhi."""
        _, d, lin = _cap_factors(phi, self.m, self.alpha)
        h1 = _cap_h1(phi, self.m, self.alpha, d, lin)
        return -self.M * self.pc * h1 / (2.0 * xp.sqrt(d * lin)) / (self.pc + self.c)

    def convexity(self):
        """The paper's m > 1 and 0 < alpha < 2, under which f is convex at every
        Phi: the margin is min(m - 1, alpha, 2 - alpha) and the witness Phi NaN."""
        margin = min(self.m - 1.0, self.alpha, 2.0 - self.alpha)
        ok = margin > 0.0
        return ok, margin, math.nan, None if ok else "meridian parameters outside admissible ranges"


@dataclass(frozen=True)
class LinearMeridian(_Meridian):
    """Open conical meridian f(p) = -Gamma (p + c)."""

    Gamma: float
    c: float

    kind = "linear"

    def __post_init__(self):
        _check_finite(self)
        if self.Gamma <= 0.0:
            raise ValidationError(f"Gamma must be positive, got {self.Gamma}")
        if self.c < 0.0:
            raise ValidationError(f"c must be nonnegative, got {self.c}")

    @property
    def scale(self) -> float:
        return self.c + 1.0

    def _f(self, p, xp):
        return -self.Gamma * (p + self.c)

    def df(self, p: float) -> float:
        return -self.Gamma

    _place_fields = ("c",)

    def _fit_place(self, p, names):
        """As the cap's: (p + c,) and, beyond the apex, dist = -(p + c) / scale,
        scale = max(c, mean |p|), with d(dist)/dc holding the max's branch."""
        import numpy as np

        s = p + self.c
        scale = np.maximum(np.maximum(self.c, np.mean(np.abs(p))), 1e-30)
        dist = np.maximum(0.0, -s) / scale
        # where the scale is c itself, d(dist)/dc = -(1 + dist) / c
        on_c = np.where(scale == self.c, dist, 0.0)
        return (s,), (dist, {"c": np.where(dist > 0.0, -(1.0 + on_c) / scale, 0.0)})

    def _fit_terms(self, at, names):
        """As the cap's: f = -Gamma (p + c), df/dGamma and df/dc."""
        return -self.Gamma * at[0], {"Gamma": -at[0], "c": -self.Gamma}

    def _s0_floor(self, bq):
        """The floor 0.01 mean(B q) of s0 = max(B q, |f|, floor); no partials."""
        import numpy as np

        return 0.01 * max(float(np.mean(bq)), 1e-30), {}

    def convexity(self):
        """Affine, so convex: no finite witness or margin."""
        return True, math.inf, math.nan, "linear meridian is affine in p (f'' = 0)"


# ---------------------------------------------------------------------------
# The seven-parameter record
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class YieldParams:
    """The seven material parameters of the native criterion.

    M > 0 controls pressure sensitivity, pc > 0 and c >= 0 are the
    isotropic compression and tension yield strengths, m > 1 and
    0 < alpha < 2 distort the meridian, beta and gamma shape the deviatoric
    section.  The default constructor also enforces the shape's convexity
    condition: the interval 2 - bound(gamma) <= beta <= bound(gamma), and g
    positive at the sector ends; use :meth:`unchecked` to
    build records outside it (for demonstrations or certification tests)
    and :meth:`limit_mode` to clamp the excluded limit values gamma = 1 and
    alpha in {0, 2}.
    """

    M: float
    pc: float
    c: float
    m: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        # Range checks delegate to the meridian/shape constructors; the
        # validated meridian is kept for meridian().
        object.__setattr__(self, "_meridian", self.meridian())
        shape = self.shape()
        ok, lo, hi = beta_in_convex_interval(self.beta, self.gamma)
        if not ok:
            raise ValidationError(
                f"beta={self.beta} outside the convex interval "
                f"[{lo:.6g}, {hi:.6g}] for gamma={self.gamma}; "
                "use YieldParams.unchecked to bypass"
            )
        _check_native_shape(shape, "; use YieldParams.unchecked to bypass")

    @classmethod
    def unchecked(cls, M, pc, c, m, alpha, beta, gamma) -> "YieldParams":
        """Construct without any validation.  Downstream code may reject."""
        return _record(cls, dict(zip(_params(cls), map(float, (M, pc, c, m, alpha, beta, gamma)))))

    @classmethod
    def limit_mode(cls, M, pc, c, m, alpha, beta, gamma):
        """Build params, substituting the excluded limit values.

        gamma >= 1 becomes 1 - 1e-9, alpha <= 0 becomes 1e-8 and
        alpha >= 2 becomes 2 - 1e-8.  Returns ``(params, warnings)`` where
        warnings lists the substitutions applied.
        """
        warnings: list[str] = []
        if gamma >= 1.0:
            warnings.append(f"gamma={gamma} replaced by 1-1e-9 (piecewise-linear limit)")
            gamma = 1.0 - 1e-9
        if alpha <= 0.0:
            warnings.append(f"alpha={alpha} replaced by 1e-8 (corner limit)")
            alpha = 1e-8
        elif alpha >= 2.0:
            warnings.append(f"alpha={alpha} replaced by 2-1e-8 (corner limit)")
            alpha = 2.0 - 1e-8
        return cls(M, pc, c, m, alpha, beta, gamma), tuple(warnings)

    def meridian(self) -> CapMeridian:
        # a record from unchecked() has none kept, and is validated here
        return self.__dict__.get("_meridian") or CapMeridian(
            self.M, self.pc, self.c, self.m, self.alpha
        )

    def shape(self) -> CosineLode:
        return CosineLode(self.beta, self.gamma)

    def criterion(self, A: float = 0.0, B: float = 1.0) -> "Criterion":
        return Criterion(meridian=self.meridian(), shape=self.shape(), A=A, B=B)

    to_dict = _param_dict


# ---------------------------------------------------------------------------
# Criterion: meridian + shape + quadratic extension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Criterion:
    """A yield criterion F = A q^2 + B q / g(theta) + f(p).

    A >= 0 (units 1/stress) is the quadratic deviatoric coefficient of the
    four-parameter concrete-type extension; A = 0, B = 1 with the cap
    meridian and the native shape recovers the plain seven-parameter form.
    """

    meridian: CapMeridian | LinearMeridian
    shape: CosineLode | PowerLaw | WillamWarnke | GudehusArgyris
    A: float = 0.0
    B: float = 1.0

    def __post_init__(self):
        _check_finite(self)
        if self.A < 0.0:
            raise ValidationError(f"A must be nonnegative, got {self.A}")
        if self.B <= 0.0:
            raise ValidationError(f"B must be positive, got {self.B}")

    def to_dict(self) -> dict:
        """The parameter-file form; the native shape's beta and gamma go inline."""
        d = {"meridian": self.meridian.kind, **self.meridian.to_dict()}
        if isinstance(self.shape, CosineLode):
            d.update(_param_dict(self.shape))
        else:
            d["deviatoric"] = self.shape.to_dict()
        return {**d, **_param_dict(self)}


def criterion_from_dict(d: dict, unchecked: bool = False) -> Criterion:
    """Build a Criterion from the parameter-file dict form.

    Accepted keys: M, pc, c, m, alpha, beta, gamma plus the optional
    meridian ("bp" | "linear"), Gamma, A, B and a "deviatoric" object
    {"kind": ...}.  ``unchecked`` skips the convexity validation of the
    native seven-parameter record (range checks still apply).
    """
    if not isinstance(d, dict):
        raise ValidationError(f"parameter JSON must be an object, got {type(d).__name__}")
    kind = d.get("meridian", "bp")
    of = f"meridian {kind!r}"
    if kind == "bp":
        meridian = CapMeridian(*(_number(d, name, of=of) for name in _params(CapMeridian)))
    elif kind == "linear":
        meridian = LinearMeridian(Gamma=_number(d, "Gamma", of=of), c=_number(d, "c", 0.0))
    else:
        raise ValidationError(f"unknown meridian kind {kind!r}")
    if "deviatoric" in d:
        shape = shape_from_dict(d["deviatoric"])
    else:
        shape = CosineLode(*(_number(d, k, of="deviatoric shape") for k in _params(CosineLode)))
    crit = Criterion(meridian=meridian, shape=shape, A=_number(d, "A", 0.0), B=_number(d, "B", 1.0))
    if not unchecked and isinstance(meridian, CapMeridian) and isinstance(shape, CosineLode):
        if not beta_in_convex_interval(shape.beta, shape.gamma)[0]:
            raise ValidationError(
                f"beta={shape.beta} outside the convex interval for gamma={shape.gamma}"
            )
        _check_native_shape(shape)
    return crit


def _check_native_shape(shape: CosineLode, hint: str = "") -> None:
    """ValidationError unless the native shape meets its whole convexity condition."""
    ok, _, _, note = shape.convexity()
    if not ok:
        raise ValidationError(f"{note} at beta={shape.beta}, gamma={shape.gamma}{hint}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def meridian_f(p: float, params: YieldParams) -> float:
    """Native meridian function f(p); +inf outside the cap [-c, pc]."""
    return params.meridian().f(p)


def deviatoric_g(theta, shape) -> float | np.ndarray:
    """Deviatoric function g(theta) for any built-in shape.

    theta must lie in [0, pi/3] (scalar or array); raises DomainError
    otherwise.
    """
    import numpy as np

    if not _theta_in_range(theta):
        raise DomainError(f"theta must lie in [0, pi/3], got {theta}")
    out = shape.g(theta)
    return float(out) if np.ndim(theta) == 0 else out


def _yield_body(fp, q, g, hydrostatic, crit: Criterion, xp):
    """F from f(p), q and g(theta), as floats or arrays: +inf wherever f(p)
    is, and no deviatoric term on hydrostatic states."""
    return crit.A * q * q + xp.where(hydrostatic, 0.0, crit.B * q / g) + fp


def yield_value(stress, crit: Criterion) -> float:
    """Evaluate F at a stress state given by principal values.

    Returns +inf outside the effective domain of a cap meridian.  For
    hydrostatic states the deviatoric terms vanish and only f(p) remains.
    """
    p, q, theta, hydrostatic = _invariant_body(*_principal(stress), FLOAT)
    # theta is a float here, so the shape's body runs over FLOAT directly
    g = crit.shape._g(FLOAT, theta, False)
    return _yield_body(crit.meridian.f(p), q, g, hydrostatic, crit, FLOAT)


def yield_value_array(stress, crit: Criterion) -> np.ndarray:
    """F at each row of an (N, 3) batch of principal stresses.

    The batch form of :func:`yield_value`: +inf outside the effective
    domain of a cap meridian, and only A q^2 + f(p) on hydrostatic states.
    """
    import numpy as np

    p, q, theta, hydrostatic = invariants_array(stress)
    return _yield_body(crit.meridian.f_array(p), q, crit.shape.g(theta), hydrostatic, crit, np)


def _surface_q_body(fp, g, crit: Criterion, xp):
    """Surface radius from f(p) and g(theta), as floats or arrays; NaN where
    f(p) is +inf (outside a cap) or positive (beyond a linear meridian's apex)."""
    ok = fp <= 0.0
    f = xp.where(ok, fp, 0.0)
    A = crit.A
    q = -f * g / crit.B
    if not isinstance(A, float) or A != 0.0:  # A is a column of the fit's batch
        # the positive root of A q^2 + B q / g + f = 0 as a factor on the
        # linear root q: it does not cancel as A -> 0, and it is q at A = 0
        q = 2.0 * q / (1.0 + xp.sqrt(1.0 + 4.0 * A / crit.B * g * q))
    return xp.where(ok, q, math.nan)


def surface_q(p: float, theta: float, crit: Criterion) -> float | None:
    """Deviatoric radius of the yield surface at (p, theta).

    For A = 0 this is q = -f(p) g(theta) / B; for A > 0 the positive root
    of A q^2 + B q / g + f(p) = 0.  Returns None when p lies outside the
    effective domain of a cap meridian.
    """
    if not _theta_in_range(theta):
        raise DomainError(f"theta must lie in [0, pi/3], got {theta}")
    xp, th = namespace(theta)
    q = _surface_q_body(crit.meridian.f(p), crit.shape._g(xp, th, False), crit, FLOAT)
    return None if math.isnan(q) else q


def surface_q_array(p, theta, crit: Criterion) -> np.ndarray:
    """Deviatoric radius of the yield surface over arrays of p and theta.

    The batch form of :func:`surface_q`: p and theta broadcast against each
    other, and the result is NaN wherever :func:`surface_q` returns None.
    Raises DomainError for a theta outside [0, pi/3], a NaN p, or shapes
    that do not broadcast.
    """
    import numpy as np

    # a single theta is checked as a float, before it becomes an array
    if not _theta_in_range(theta):
        raise DomainError(f"theta must lie in [0, pi/3], got {theta}")
    p = np.asarray(p, dtype=float)
    theta = np.asarray(theta, dtype=float)
    try:
        np.broadcast(p, theta)
    except ValueError:
        raise DomainError(f"p and theta do not broadcast: shapes {p.shape} and {theta.shape}")
    if np.isnan(p).any():
        raise DomainError("p must be a number, got nan")
    return _surface_q_body(crit.meridian.f_array(p), crit.shape.g(theta), crit, np)


@dataclass(frozen=True)
class GradientDecomposition:
    """dF/dsigma = a I + b s_tilde + c s_tilde_perp, plus the unit normal.

    c vanishes on the deviatoric meridians (theta = 0 and pi/3); there the
    tensor lies in span{I, s_tilde}.
    """

    a: float
    b: float
    c: float
    tensor: np.ndarray
    unit_normal: np.ndarray


def gradient(stress, crit: Criterion) -> GradientDecomposition:
    """Exact yield-function gradient at an interior, non-hydrostatic state.

    Raises
    ------
    DegenerateState
        At q = 0 or, for the cap meridian, within DELTA_PHI of the cap
        ends, where the caller should use :func:`normal_limits`.
    """
    import numpy as np

    a, b, c, tensor, unit_normal = _gradient_body(stress, crit)
    fields = {"a": a, "b": b, "c": c, "tensor": np.array(tensor), "unit_normal": np.array(unit_normal)}
    return _record(GradientDecomposition, fields)


def _gradient_body(stress, crit: Criterion):
    """(a, b, c, tensor, unit normal) of :func:`gradient` in plain floats, the
    last two as triples; the same DegenerateState where it raises one."""
    s1, s2, s3 = _principal(stress)
    p, q, theta, hydrostatic = _invariant_body(s1, s2, s3, FLOAT)
    if hydrostatic:
        raise DegenerateState("gradient decomposition needs q > 0")
    mer = crit.meridian
    if isinstance(mer, CapMeridian):
        phi = mer.phi(p)
        if not (DELTA_PHI < phi < 1.0 - DELTA_PHI):
            raise DegenerateState(f"Phi={phi:.3g} too close to the cap ends; use normal_limits")
        a = -mer._df(phi, FLOAT) / 3.0
    else:
        a = -mer.df(p) / 3.0
    sin3t = math.sin(3.0 * theta)
    # a smooth limit on a deviatoric meridian: the c-term drops out, and g' is not needed
    on_meridian = abs(sin3t) <= EPS_MERIDIAN
    if on_meridian:
        g, c = crit.shape._g(FLOAT, theta, False), 0.0
    else:
        g, g1 = crit.shape._g(FLOAT, theta, True)
        c = _SQRT15 * crit.B * g1 / g**2
    b = _SQRT15 * (crit.B / g + 2.0 * crit.A * q)
    u1, u2, u3 = _SQRT15 * (s1 + p) / q, _SQRT15 * (s2 + p) / q, _SQRT15 * (s3 + p) / q
    t1, t2, t3 = a + b * u1, a + b * u2, a + b * u3
    if not on_meridian:
        cos3t = math.cos(3.0 * theta)
        t1 += c * _perp(u1, cos3t, sin3t)
        t2 += c * _perp(u2, cos3t, sin3t)
        t3 += c * _perp(u3, cos3t, sin3t)
    norm = math.sqrt(3.0 * a * a + b * b + c * c)
    # a float quotient rounds as numpy's does
    return a, b, c, (t1, t2, t3), (t1 / norm, t2 / norm, t3 / norm)


def normal_limits(which: str, params: YieldParams) -> np.ndarray:
    """Unit normal limits where the surface meets the hydrostatic axis.

    ``which`` is "tension_apex" (Phi -> 0+, normal I/sqrt(3)) or
    "compression_apex" (Phi -> 1-, normal -I/sqrt(3)).  These limits do
    not exist for alpha in {0, 2}, where the surface has a corner; that
    case raises CornerCase.
    """
    import numpy as np

    if not (0.0 < params.alpha < 2.0):
        raise CornerCase(
            f"alpha={params.alpha}: a corner forms at the hydrostatic axis; "
            "the smooth normal limit does not exist"
        )
    e = np.ones(3) / math.sqrt(3.0)
    if which == "tension_apex":
        return e
    if which == "compression_apex":
        return -e
    raise DomainError(f"which must be 'tension_apex' or 'compression_apex', got {which!r}")
