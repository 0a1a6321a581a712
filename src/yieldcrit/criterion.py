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
from functools import cache
from typing import TYPE_CHECKING

from .errors import CornerCase, DegenerateState, DomainError, ValidationError, _typed, real
from .invariants import _SQRT15, FLOAT, Record, _frame, _record, _state
from .invariants import _check_theta, invariants_array, namespace
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

# The excluded gamma = 1 (piecewise-linear section) is realized as this.
GAMMA_LIMIT = 1.0 - 1e-9


def _excluded_limits(gamma: float, alpha: float, corner: float):
    """The one rule for the paper's excluded limits: gamma >= 1 becomes GAMMA_LIMIT,
    alpha <= 0 becomes ``corner`` and alpha >= 2 becomes 2 - ``corner``.  Returns
    ``(gamma, alpha, notes)`` with a note for each substitution."""
    notes = []
    if gamma >= 1.0:
        gamma = GAMMA_LIMIT
        notes.append("gamma -> 1 realized as 1-1e-9 (piecewise-linear limit)")
    if alpha <= 0.0:
        alpha = corner
        notes.append(f"alpha = 0 realized as {corner:g} (corner limit)")
    elif alpha >= 2.0:
        alpha = 2.0 - corner
        notes.append(f"alpha = 2 realized as 2-{corner:g} (corner limit)")
    return gamma, alpha, tuple(notes)


@cache
def _params(cls) -> tuple[str, ...]:
    """The parameter names of a record class: its fields annotated ``float``,
    in order, the one list of them (read by the number rule, the dict forms
    and the fit's parameter lookup)."""
    return tuple(name for name, annotation in cls._field_types.items() if annotation == "float")


def _param_dict(record) -> dict:
    return {name: getattr(record, name) for name in _params(type(record))}


def _real_fields(record) -> None:
    """Put each parameter of ``record`` under the number rule, and store the float it gives."""
    for name in _params(type(record)):
        object.__setattr__(record, name, real(getattr(record, name), name))


def _entry(d: dict, name: str, of: str):
    """``d[name]`` as given, for its record's number rule; ValidationError when ``d`` has no such key."""
    if name not in d:
        raise ValidationError(f"missing parameter {name!r} for {of}")
    return d[name]


# ---------------------------------------------------------------------------
# Deviatoric shapes: g(theta) and its hand-differentiated derivatives
# ---------------------------------------------------------------------------


class _Shape:
    """A deviatoric shape; its dict form is its kind and its parameters.

    Each shape has one formula body, ``_jet(xp, theta, order=0, by=())``,
    over floats (``FLOAT``) or arrays (numpy).  It returns the list of g,
    dg/dtheta and d2g/dtheta2 up to ``order`` and, when ``by`` names any
    field, a dict of dg/d(field) by field as its last item.  It builds them
    from one set of intermediates and computes only what is asked for;
    ``g``, ``dg`` and ``d2g`` read it.  ``convexity()`` gives
    the exact convexity condition as (ok, signed margin, witness theta,
    note or None): the margin is the parameter's distance from the
    condition's boundary, and the witness where the condition binds."""

    # the convex beta interval, which only the native shape has
    beta_interval = None

    def g(self, theta):
        return self._jet(*_check_theta(theta))[0]

    def dg(self, theta):
        return self._jet(*_check_theta(theta), 1)[1]

    def d2g(self, theta):
        return self._jet(*_check_theta(theta), 2)[2]

    def to_dict(self) -> dict:
        return {"kind": self.kind, **_param_dict(self)}


class CosineLode(_Shape, Record):
    """Native deviatoric shape 1/cos(beta pi/6 - acos(gamma cos 3t)/3).

    gamma in [0, 1) smooths/sharpens the section (gamma -> 1 approaches a
    piecewise-linear section), beta biases it between the lower and upper
    convexity limits.  beta = 1, gamma = 0 is the circle.
    """

    beta: float
    gamma: float

    kind = "bp"

    def __post_init__(self):
        _real_fields(self)
        if not (0.0 <= self.gamma < 1.0):
            raise ValidationError(f"gamma must lie in [0, 1), got {self.gamma}")
        if not math.isfinite(self.beta * math.pi):
            raise ValidationError(f"beta={self.beta} puts the angle beta pi / 6 past the floats")

    def _jet(self, xp, th, order=0, by=()):
        """g = 1 / cos(psi) with u = gamma cos 3t and psi = beta pi/6 - acos(u) / 3;
        dg/dpsi = g tan(psi), dpsi/dbeta = pi/6 and dpsi/dgamma = cos 3t / (3 w),
        w = sqrt(1 - u^2)."""
        c3 = xp.cos(3.0 * th)
        u = self.gamma * c3
        psi = self.beta * math.pi / 6.0 - xp.arccos(u) / 3.0
        cos_psi = xp.cos(psi)
        g = 1.0 / cos_psi
        jet = [g]
        if not (order or by):
            return jet
        t = xp.tan(psi)
        w = xp.sqrt(1.0 - u * u)
        if order:
            s3 = xp.sin(3.0 * th)
            psi1 = -self.gamma * s3 / w
            jet.append(t * psi1 / cos_psi)
        if order > 1:
            psi2 = -3.0 * self.gamma * c3 / w + 3.0 * self.gamma**3 * c3 * s3**2 / w**3
            jet.append(g * ((t * t + g * g) * psi1 * psi1 + t * psi2))
        if by:
            g_psi = t / cos_psi
            jet.append({"beta": g_psi * (math.pi / 6.0), "gamma": g_psi * c3 / (3.0 * w)})
        return jet

    @property
    def beta_interval(self) -> tuple[float, float]:
        return beta_in_convex_interval(self.beta, self.gamma)[1:]

    def convexity(self):
        """beta in [lo, hi] to within BOUNDARY_TOL (hi binds at theta = pi/3, lo at
        0), and g positive and finite at the sector ends (:meth:`_end_fault`)."""
        ok, lo, hi = beta_in_convex_interval(self.beta, self.gamma)
        margin, theta = min((hi - self.beta, math.pi / 3.0), (self.beta - lo, 0.0))
        if not ok:
            return ok, margin, theta, (
                f"beta={self.beta:.6g} outside the convex interval "
                f"[{lo:.6g}, {hi:.6g}] for gamma={self.gamma:.6g}"
            )
        note = "beta at the convexity boundary" if margin < BOUNDARY_TOL else None
        return self._end_fault() or (ok, margin, theta, note)

    def _end_fault(self):
        """:meth:`convexity`'s result where g is not positive and finite at theta = 0 or
        pi/3, the extremes of psi (monotone in cos 3 theta), else None.  In the beta
        interval that is only at gamma near 0 within BOUNDARY_TOL of an end; the margin is 1/g."""
        for end in (0.0, math.pi / 3.0):
            g = self.g(end)
            if not 0.0 < g < math.inf:
                return False, 1.0 / g, end, "g(theta) is not positive throughout the sector"


class PowerLaw(_Shape, Record):
    """Smooth deviatoric shape (1 + beta (1 + cos 3t))^(-1/n).

    Approaches (without reaching) the triangular section as beta grows; it
    cannot be stretched all the way to the lower convexity limit.
    """

    beta: float
    n: float

    kind = "power-law"

    def __post_init__(self):
        _real_fields(self)
        if self.beta < 0.0:
            raise ValidationError(f"beta must be nonnegative, got {self.beta}")
        if self.n <= 0.0:
            raise ValidationError(f"n must be positive, got {self.n}")

    def _jet(self, xp, th, order=0, by=()):
        """g = v^e with v = 1 + beta (1 + cos 3t) and e = -1/n;
        dg/dbeta = -g (1 + cos 3t) / (n v) and dg/dn = g ln(v) / n^2."""
        c3 = xp.cos(3.0 * th)
        v = 1.0 + self.beta * (1.0 + c3)
        e = -1.0 / self.n
        g = v**e
        jet = [g]
        if order:
            v1 = -3.0 * self.beta * xp.sin(3.0 * th)
            v_e1 = v ** (e - 1.0)
            jet.append(e * v_e1 * v1)
        if order > 1:
            v2 = -9.0 * self.beta * c3
            jet.append(e * (e - 1.0) * v ** (e - 2.0) * v1 * v1 + e * v_e1 * v2)
        if by:
            jet.append({"beta": -g * (1.0 + c3) / (self.n * v), "n": g * xp.log(v) / self.n**2})
        return jet

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
    agree at n = 11/3.  Past n = 1e8 it is 8 n / 9 + 7 / 6 to rounding.
    """
    n = real(n, "n")
    if n <= 0.0:
        raise DomainError(f"n must be positive, got {n}")
    if n <= 11.0 / 3.0:
        return n / (9.0 - 2.0 * n)
    if n > 1e8:  # the asymptote, exact in floats here, where the form below cancels
        return 8.0 * n / 9.0 + 7.0 / 6.0
    return 1.0 / (-1.0 + math.sqrt(1.0 + 9.0 * (n - 2.0) ** 2 / (n * n * (4.0 * n - 13.0))))


class WillamWarnke(_Shape, Record):
    """Elliptic deviatoric interpolation with eccentricity e in (0.5, 1].

    e = 1 is the circle; e -> 0.5 approaches the triangular (lower
    convexity) limit.  Convex for every admissible e.  Normalized so that
    g(pi/3) = 1 and g(0) = e.
    """

    e: float

    kind = "willam-warnke"

    def __post_init__(self):
        _real_fields(self)
        if not (0.5 < self.e <= 1.0):
            raise ValidationError(f"e must lie in (0.5, 1], got {self.e}")

    def _jet(self, xp, th, order=0, by=()):
        """g = num / den at u = cos theta, with num = 2 c2 u + t r,
        den = 4 c2 u^2 + t^2, c2 = 1 - e^2, t = 2e - 1 and
        r^2 = rho = 4 c2 u^2 + 5 e^2 - 4 e; theta derivatives follow from
        those in u by the chain rule."""
        e = self.e
        u = xp.cos(th)
        c2 = 1.0 - e * e
        t = 2.0 * e - 1.0
        # rho is (2e - 1)^2 > 0 at u = 1/2, where rounding can take it just below 0
        r = xp.sqrt(xp.maximum(0.0, 4.0 * c2 * u * u + 5.0 * e * e - 4.0 * e))
        num = 2.0 * c2 * u + t * r
        den = 4.0 * c2 * u * u + t * t
        jet = [num / den]
        if order or by:  # t / r tends to 1 where rho rounds to 0, at u = 1/2 for e near 1/2
            r = xp.where(r > 0.0, r, t)
        if order:
            rho_u = 8.0 * c2 * u
            num_u = 2.0 * c2 + t * rho_u / (2.0 * r)
            den_u = 8.0 * c2 * u
            g_u = (num_u * den - num * den_u) / den**2
            s = xp.sin(th)
            jet.append(g_u * (-s))
        if order > 1:
            num_uu = t * (8.0 * c2 / (2.0 * r) - rho_u * rho_u / (4.0 * r**3))
            den_uu = 8.0 * c2
            g_uu = (
                num_uu / den
                - (2.0 * num_u * den_u + num * den_uu) / den**2
                + 2.0 * num * den_u * den_u / den**3
            )
            jet.append(g_uu * s**2 + g_u * (-u))
        if by:
            r_e = (5.0 * e - 2.0 - 4.0 * e * u * u) / r
            num_e = -4.0 * e * u + 2.0 * r + t * r_e
            den_e = 4.0 * t - 8.0 * e * u * u
            jet.append({"e": (num_e * den - num * den_e) / den**2})
        return jet

    def convexity(self):
        """Convex for every admissible e: the margin is e - 1/2, and the witness
        theta = 0, the side that flattens towards the triangle as e -> 1/2."""
        return True, self.e - 0.5, 0.0, "elliptic shape is convex for every admissible eccentricity"


class GudehusArgyris(_Shape, Record):
    """Rational deviatoric shape 2k / (1 + k + (1-k) cos 3t), k in (0.777, 1].

    k = 1 is the circle.  The printed lower bound 0.777 slightly undershoots
    the exact convexity boundary k = 7/9; certification applies k >= 7/9
    (see :meth:`convexity`) and flags k in (0.777, 7/9) as inadmissible.
    """

    k: float

    kind = "gudehus-argyris"

    def __post_init__(self):
        _real_fields(self)
        if not (0.777 < self.k <= 1.0):
            raise ValidationError(f"k must lie in (0.777, 1], got {self.k}")

    def _jet(self, xp, th, order=0, by=()):
        """g = 2k / D with D = 1 + k + (1-k) cos 3t; dg/dk = 2 (1 + cos 3t) / D^2."""
        k = self.k
        c3 = xp.cos(3.0 * th)
        d = 1.0 + k + (1.0 - k) * c3
        jet = [2.0 * k / d]
        if order:
            d1 = -3.0 * (1.0 - k) * xp.sin(3.0 * th)
            jet.append(-2.0 * k * d1 / d**2)
        if order > 1:
            d2 = -9.0 * (1.0 - k) * c3
            jet.append(-2.0 * k * d2 / d**2 + 4.0 * k * d1 * d1 / d**3)
        if by:
            jet.append({"k": 2.0 * (1.0 + c3) / d**2})
        return jet

    def convexity(self):
        """k >= 7/9 to within BOUNDARY_TOL: the curvature 4 k^2 (1 + k - 8 (1-k)
        cos 3 theta) / D^3 is least at the witness theta = 0, as k^2 (9k - 7) / 2."""
        margin = self.k - 7.0 / 9.0
        if self.k < 7.0 / 9.0 - BOUNDARY_TOL:
            return False, margin, 0.0, f"k={self.k:.6g} is below the exact curvature boundary 7/9"
        return True, margin, 0.0, "k at the convexity boundary 7/9" if margin < BOUNDARY_TOL else None


SHAPE_KINDS = {cls.kind: cls for cls in (CosineLode, PowerLaw, WillamWarnke, GudehusArgyris)}


def shape_from_dict(d: dict):
    """Build a deviatoric shape from its JSON dict form; the shape puts each value under the number rule."""
    try:
        kind = d["kind"]
    except (KeyError, TypeError):
        raise ValidationError(f"deviatoric shape needs a 'kind' key, got {d!r}")
    try:
        cls = SHAPE_KINDS[kind]
    except (KeyError, TypeError):  # a kind that is not a string may be unhashable
        raise ValidationError(f"unknown deviatoric kind {kind!r}")
    try:
        return cls(**{k: v for k, v in d.items() if k != "kind"})
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
    gamma = real(gamma, "gamma")
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


def _pressure(p):
    """``namespace(p, "p")``, and a DomainError for a NaN p or NaN entry: the one rule for a pressure."""
    xp, p = namespace(p, "p")
    if (p != p) if xp is FLOAT else xp.isnan(p).any():
        raise DomainError("p must be a number, got nan")
    return xp, p


class _Meridian:
    """A meridian function f(p); ``kind`` names it in the dict form and
    ``scale`` is its stress scale.

    Each meridian has one formula body in two stages, over floats
    (``FLOAT``) or arrays (numpy).  ``_place(p, xp, by=())`` gives what p
    and the ``_place_fields`` fix, which the fit keeps while those fields
    are held.  ``_jet(at, xp, order=0, by=())`` gives, at that place, the
    list of f (+inf outside a cap), df/dp and d2f/dp2 up to ``order`` (on
    the open interior of a cap: the caller guards its ends) and, when
    ``by`` names any field, a dict of df/d(field) by field as its last
    item, with the branch held fixed.  It computes only what is asked for;
    ``f`` and ``df`` read it, and take p as the shapes' readers take theta:
    a float gives a float and an array an array of its shape, under the one
    rule of :func:`_pressure`.  ``convexity()`` gives the exact
    convexity condition as (ok, signed margin, witness Phi, note or None),
    like a shape's.  For the fit, ``_penalty(p, at, by)`` gives the
    distance outside the meridian and its partials, and ``_s0_floor`` the
    floor of s0."""

    def f(self, p):
        """Meridian value (a float or an array); +inf outside a cap."""
        xp, p = _pressure(p)
        return self._jet(self._place(p, xp), xp)[0]

    def df(self, p):
        """df/dp (a float or an array) on the open interior of a cap: a DomainError
        for one p that is not inside it or where h underflows to 0 next to an end,
        so that df/dp is infinite; NaN at such entries of an array, with no warning."""
        xp, p = _pressure(p)
        at = self._place(p, xp)
        inner, interior = self._open(at, xp)
        if xp is not FLOAT:
            with xp.errstate(divide="ignore"):  # where h underflows the slope is infinite
                slope = self._jet(interior, xp, 1)[1]
            return xp.where(inner & (xp.abs(slope) < math.inf), slope, math.nan)
        if inner:
            try:
                return self._jet(interior, xp, 1)[1]
            except ZeroDivisionError:  # h underflows to 0 next to an end, where f is finite
                pass
        # f is finite at an end of the cap and +inf beyond it
        if self._jet(at, xp)[0] < math.inf:
            raise DomainError(f"df/dp is infinite at p={p}, an end of the cap")
        raise DomainError(f"df/dp is undefined at p={p}, which is not inside the cap")

    to_dict = _param_dict


class CapMeridian(_Meridian, Record):
    """Bounded meridian with tension apex at -c and compression apex at pc."""

    M: float
    pc: float
    c: float
    m: float
    alpha: float

    kind = "bp"

    def __post_init__(self):
        _real_fields(self)
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

    _place_fields = ("pc", "c")

    def _place(self, p, xp, by=()):
        """(Phi, Phi in [0, 1], ph = Phi there and 0.5 elsewhere, ln ph (0 where
        ph = 0) if m is in ``by``, 1 - 2 ph if alpha is)."""
        phi = (p + self.c) / (self.pc + self.c)
        inside = (phi >= 0.0) & (phi <= 1.0)
        ph = xp.where(inside, phi, 0.5)
        if not by:
            return phi, inside, ph, None, None
        ln_ph = xp.log(xp.where(ph > 0.0, ph, 1.0)) if "m" in by else None
        tilt = 1.0 - 2.0 * ph if "alpha" in by else None
        return phi, inside, ph, ln_ph, tilt

    def _open(self, at, xp):
        """(where Phi lies in the open cap (0, 1), ``at`` with ph = 1/2 elsewhere):
        where df/dp is finite, and a place for it that divides by no zero."""
        phi, _, ph, ln_ph, tilt = at
        inner = (phi > 0.0) & (phi < 1.0)
        return inner, (phi, inner, xp.where(inner, ph, 0.5), ln_ph, tilt)

    def _jet(self, at, xp, order=0, by=()):
        """f = -M pc sqrt(h) at ph, with h = d lin, d = Phi - Phi^m and
        lin = 2 (1-alpha) Phi + alpha; dPhi/dp = 1 / (pc + c).  A partial by
        field is 0 where h = 0, at a cap end."""
        _, inside, ph, ln_ph, tilt = at
        m, alpha, Mpc = self.m, self.alpha, -self.M * self.pc
        phm = ph**m
        d = ph - phm
        lin = 2.0 * (1.0 - alpha) * ph + alpha
        h = d * lin
        root = xp.sqrt(xp.maximum(0.0, h))
        jet = [xp.where(inside, Mpc * root, math.inf)]
        if not (order or by):
            return jet
        scale = self.pc + self.c
        if order or "pc" in by or "c" in by:
            d_1 = 1.0 - m * ph ** (m - 1.0)
            h1 = d_1 * lin + 2.0 * (1.0 - alpha) * d
        if order:
            jet.append(Mpc * h1 / (2.0 * root) / scale)
        if order > 1:
            h2 = -m * (m - 1.0) * ph ** (m - 2.0) * lin + 4.0 * (1.0 - alpha) * d_1
            jet.append(Mpc * (2.0 * h2 * h - h1 * h1) / (4.0 * h * root) / (scale * scale))
        if not by:
            return jet
        # df/dh = -M pc / (2 sqrt h), set to 0 where h <= 0
        positive = h > 0.0
        f_h = xp.where(positive, Mpc / (2.0 * xp.where(positive, root, 1.0)), 0.0)
        df = {}
        if "M" in by:
            df["M"] = -self.pc * root
        if "pc" in by or "c" in by:
            f_phi = f_h * h1 / scale
            df["pc"] = -self.M * root - f_phi * ph
            df["c"] = f_phi * (1.0 - ph)
        if "m" in by:
            df["m"] = -f_h * phm * ln_ph * lin
        if "alpha" in by:
            df["alpha"] = f_h * d * tilt
        jet.append(df)
        return jet

    def _penalty(self, p, at, by):
        """dist(Phi, [0, 1]) and, if ``by`` names pc or c, its partials by both."""
        import numpy as np

        phi = at[0]
        ddist = {}
        if "pc" in by or "c" in by:
            side = np.where(phi < 0.0, -1.0, 1.0)
            ddist["pc"] = side * (-phi / self.scale)
            ddist["c"] = side * ((1.0 - phi) / self.scale)
        return np.maximum(0.0, np.maximum(-phi, phi - 1.0)), ddist

    def _s0_floor(self, bq):
        """The floor 0.01 pc of s0 = max(B q, |f|, floor) and its partials."""
        return 0.01 * self.pc, {"pc": 0.01}

    def convexity(self):
        """The paper's m > 1 and 0 < alpha < 2, under which f is convex at every
        Phi: the margin is min(m - 1, alpha, 2 - alpha) and the witness Phi NaN."""
        margin = min(self.m - 1.0, self.alpha, 2.0 - self.alpha)
        ok = margin > 0.0
        return ok, margin, math.nan, None if ok else "meridian parameters outside admissible ranges"


class LinearMeridian(_Meridian, Record):
    """Open conical meridian f(p) = -Gamma (p + c)."""

    Gamma: float
    c: float

    kind = "linear"

    def __post_init__(self):
        _real_fields(self)
        if self.Gamma <= 0.0:
            raise ValidationError(f"Gamma must be positive, got {self.Gamma}")
        if self.c < 0.0:
            raise ValidationError(f"c must be nonnegative, got {self.c}")

    @property
    def scale(self) -> float:
        return self.c + 1.0

    _place_fields = ("c",)

    def _place(self, p, xp, by=()):
        """p + c."""
        return p + self.c

    def _open(self, s, xp):
        """Every p is inside an open meridian."""
        return True, s

    def _jet(self, s, xp, order=0, by=()):
        """f = -Gamma s at s = p + c, with df/dp = df/dc = -Gamma and df/dGamma = -s."""
        jet = [-self.Gamma * s]
        if order:
            jet.append(xp.full_like(s, -self.Gamma))
        if order > 1:
            jet.append(xp.full_like(s, 0.0))
        if by:
            jet.append({"Gamma": -s, "c": -self.Gamma})
        return jet

    def _penalty(self, p, s, by):
        """Beyond the apex, dist = -(p + c) / scale with scale = max(c, mean |p|),
        and d(dist)/dc holding the max's branch."""
        import numpy as np

        scale = np.maximum(np.maximum(self.c, np.mean(np.abs(p))), 1e-30)
        dist = np.maximum(0.0, -s) / scale
        # where the scale is c itself, d(dist)/dc = -(1 + dist) / c
        on_c = np.where(scale == self.c, dist, 0.0)
        return dist, {"c": np.where(dist > 0.0, -(1.0 + on_c) / scale, 0.0)}

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


class YieldParams(Record):
    """The seven material parameters of the native criterion.

    M > 0 controls pressure sensitivity, pc > 0 and c >= 0 are the
    isotropic compression and tension yield strengths, m > 1 and
    0 < alpha < 2 distort the meridian, beta and gamma shape the deviatoric
    section.  The default constructor also passes the shape through the one
    convexity gate, :func:`_check_native_shape` (2 - bound(gamma) <= beta <=
    bound(gamma), g positive at the sector ends); use :meth:`unchecked` to
    build records outside it (for demonstrations or certification tests)
    and :meth:`limit_mode` to substitute the excluded limit values gamma = 1
    and alpha in {0, 2}.  :meth:`meridian` builds, and so checks, the meridian.
    """

    M: float
    pc: float
    c: float
    m: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        _real_fields(self)
        self.meridian()  # its range checks
        _check_native_shape(self.shape(), "; use YieldParams.unchecked to bypass")

    @classmethod
    def unchecked(cls, M, pc, c, m, alpha, beta, gamma) -> "YieldParams":
        """Construct without any validation.  Downstream code may reject."""
        return _record(cls, dict(zip(_params(cls), map(float, (M, pc, c, m, alpha, beta, gamma)))))

    @classmethod
    def limit_mode(cls, M, pc, c, m, alpha, beta, gamma):
        """Build params, substituting the excluded limit values.

        gamma >= 1 becomes 1 - 1e-9, alpha <= 0 becomes 1e-8 and alpha >= 2
        becomes 2 - 1e-8, by ``realize``'s rule.  Returns ``(params, warnings)``
        where warnings lists the substitutions applied, in realize's words.
        """
        gamma, alpha, warnings = _excluded_limits(real(gamma, "gamma"), real(alpha, "alpha"), 1e-8)
        return cls(M, pc, c, m, alpha, beta, gamma), warnings

    def meridian(self) -> CapMeridian:
        return CapMeridian(self.M, self.pc, self.c, self.m, self.alpha)

    def shape(self) -> CosineLode:
        return CosineLode(self.beta, self.gamma)

    def criterion(self, A: float = 0.0, B: float = 1.0) -> "Criterion":
        return Criterion(meridian=self.meridian(), shape=self.shape(), A=A, B=B)

    to_dict = _param_dict


# ---------------------------------------------------------------------------
# Criterion: meridian + shape + quadratic extension
# ---------------------------------------------------------------------------


class Criterion(Record):
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
        _real_fields(self)
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
    {"kind": ...}, each value under the number rule once, in its record.  ``unchecked``
    skips the gate :func:`_check_native_shape` (range checks still apply).
    """
    if not isinstance(d, dict):
        raise ValidationError(f"parameter JSON must be an object, got {type(d).__name__}")
    kind = d.get("meridian", "bp")
    of = f"meridian {kind!r}"
    if kind == "bp":
        meridian = CapMeridian(*(_entry(d, name, of) for name in _params(CapMeridian)))
    elif kind == "linear":
        meridian = LinearMeridian(Gamma=_entry(d, "Gamma", of), c=d.get("c", 0.0))
    else:
        raise ValidationError(f"unknown meridian kind {kind!r}")
    if "deviatoric" in d:
        shape = shape_from_dict(d["deviatoric"])
    else:
        shape = CosineLode(*(_entry(d, k, "deviatoric shape") for k in _params(CosineLode)))
    crit = Criterion(meridian=meridian, shape=shape, A=d.get("A", 0.0), B=d.get("B", 1.0))
    if not unchecked and isinstance(meridian, CapMeridian) and isinstance(shape, CosineLode):
        _check_native_shape(shape)
    return crit


def _check_native_shape(shape: CosineLode, hint: str = "") -> None:
    """The one gate for a native shape's convexity: a ValidationError, then ``hint``, unless
    beta is in the convex interval, tested once (``beta=4.5 outside the convex interval for
    gamma=0.5``), and g is positive and finite at the sector ends (:meth:`CosineLode._end_fault`)."""
    if not beta_in_convex_interval(shape.beta, shape.gamma)[0]:
        raise ValidationError(f"beta={shape.beta} outside the convex interval for gamma={shape.gamma}{hint}")
    if fault := shape._end_fault():
        raise ValidationError(f"{fault[3]} at beta={shape.beta}, gamma={shape.gamma}{hint}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _yield_body(fp, q, g, hydrostatic, crit: Criterion, xp):
    """F from f(p), q and g(theta), as floats or arrays: +inf wherever f(p)
    is, and no deviatoric term on hydrostatic states."""
    return crit.A * q * q + xp.where(hydrostatic, 0.0, crit.B * q / g) + fp


# f(p) and g(theta) at the state of the last scalar F: (criterion, p, theta, f, g).
# One tuple, replaced whole and read whole as invariants._last is, so no lock.
_values = (object(), None, None, 0.0, 0.0)


def yield_value(stress, crit: Criterion) -> float:
    """Evaluate F at a stress state given by principal values.

    Returns +inf outside the effective domain of a cap meridian.  For
    hydrostatic states the deviatoric terms vanish and only f(p) remains.
    f(p) and g(theta) are kept for :func:`surface_q` at this state's p and
    theta under the same criterion.
    """
    global _values
    p, q, theta, hydrostatic = _state(stress)[1]
    mer = crit.meridian
    # p and theta are floats here, so the bodies run over FLOAT directly
    fp, g = mer._jet(mer._place(p, FLOAT), FLOAT)[0], crit.shape._jet(FLOAT, theta)[0]
    _values = crit, p, theta, fp, g
    # where g underflows to 0, B q / g is +inf off the axis, as on the array path, and dropped on it
    if g == 0.0 and not hydrostatic:
        return math.inf
    return _yield_body(fp, q, g or 1.0, hydrostatic, crit, FLOAT)


def yield_value_array(stress, crit: Criterion) -> np.ndarray:
    """F at each row of an (N, 3) batch of principal stresses.

    The batch form of :func:`yield_value`: +inf outside the effective
    domain of a cap meridian, and only A q^2 + f(p) on hydrostatic states.
    """
    import numpy as np

    p, q, theta, hydrostatic = invariants_array(stress)
    # p comes from finite stresses, so the body runs on it directly, as in yield_value
    fp, g = crit.meridian._jet(crit.meridian._place(p, np), np)[0], crit.shape._jet(np, theta)[0]
    # where g underflows to 0, B q / g is +inf off the axis and NaN on it, which the body drops
    with np.errstate(divide="ignore", invalid="ignore"):
        return _yield_body(fp, q, g, hydrostatic, crit, np)


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
    effective domain of a cap meridian.  p and theta are one number each,
    read as the meridians' ``f`` and the shapes' ``g`` read them; an array
    of either (other than 0-d) is a DomainError that points to
    :func:`surface_q_array`.
    """
    kept, kept_p, kept_theta, fp, g = _values
    # the very p and theta objects of the last scalar F's state, which were checked, give its f and g
    if not (kept is crit and kept_p is p and kept_theta is theta):
        (xt, th), (xp, at) = _check_theta(theta), _pressure(p)
        for name, x, value, given in (("theta", xt, th, theta), ("p", xp, at, p)):
            if x is not FLOAT and value.ndim:  # a numpy number is read as a 0-d array
                raise DomainError(f"{name} must be one number, got {given!r}; surface_q_array takes arrays")
        mer = crit.meridian
        fp, g = mer._jet(mer._place(float(at), FLOAT), FLOAT)[0], crit.shape._jet(FLOAT, float(th))[0]
    q = _surface_q_body(fp, g, crit, FLOAT)
    return None if math.isnan(q) else q


def surface_q_array(p, theta, crit: Criterion) -> np.ndarray:
    """Deviatoric radius of the yield surface over arrays of p and theta.

    The batch form of :func:`surface_q`: p and theta broadcast against each
    other, and the result is NaN wherever :func:`surface_q` returns None.
    Raises DomainError for a theta outside [0, pi/3], a p that is not
    numbers or is NaN, or shapes that do not broadcast.
    """
    import numpy as np

    theta, p = _check_theta(theta)[1], _pressure(p)[1]
    try:
        np.broadcast(p, theta)
    except ValueError:
        raise DomainError(f"p and theta do not broadcast: shapes {np.shape(p)} and {np.shape(theta)}")
    mer = crit.meridian
    return _surface_q_body(mer._jet(mer._place(p, np), np)[0], crit.shape._jet(np, theta)[0], crit, np)


class GradientDecomposition(Record):
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
    p, q, theta, _, s_tilde, s_tilde_perp = _frame(stress)
    if s_tilde is None:
        raise DegenerateState("gradient decomposition needs q > 0")
    mer = crit.meridian
    at = mer._place(p, FLOAT)
    # on a cap, at[0] is Phi
    if isinstance(mer, CapMeridian) and not (DELTA_PHI < at[0] < 1.0 - DELTA_PHI):
        raise DegenerateState(f"Phi={at[0]:.3g} too close to the cap ends; use normal_limits")
    a = -mer._jet(at, FLOAT, 1)[1] / 3.0
    # a smooth limit on a deviatoric meridian (no s_tilde_perp): the c-term drops out, and g' is not needed
    jet = crit.shape._jet(FLOAT, theta, 0 if s_tilde_perp is None else 1)
    g = jet[0]
    g2 = g**2
    if g2 == 0.0:  # b divides by g and c by g^2; F is +inf where g is 0
        raise DegenerateState(f"g(theta)={g:.3g} at theta={theta:.6g}: its square underflows to 0")
    b = _SQRT15 * (crit.B / g + 2.0 * crit.A * q)
    c = 0.0 if s_tilde_perp is None else _SQRT15 * crit.B * jet[1] / g2
    u1, u2, u3 = s_tilde
    t1, t2, t3 = a + b * u1, a + b * u2, a + b * u3
    if s_tilde_perp is not None:
        v1, v2, v3 = s_tilde_perp
        t1, t2, t3 = t1 + c * v1, t2 + c * v2, t3 + c * v3
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

    _typed("normal_limits", (params, YieldParams))
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
