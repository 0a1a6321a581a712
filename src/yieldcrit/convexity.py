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

The paper's two propositions reduce both to closed-form conditions on the
parameters, which each meridian and shape record states as its
``convexity()`` and :func:`certify` reads: m > 1 and 0 < alpha < 2 for the
cap meridian, the beta interval of ``beta_bound`` for the native shape,
``powerlaw_beta_max``, k >= 7/9 for Gudehus-Argyris and every admissible e
for Willam-Warnke.  The curvature combination and the Hessian below are
oracles that the tests hold those conditions against.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .criterion import Criterion, _powerlaw_coefficients
from .errors import DegenerateState, DomainError
from .invariants import Record, _check_theta, _state, namespace

if TYPE_CHECKING:
    import numpy as np

def deviatoric_curvature(theta, shape):
    """Curvature combination g^2 + 2 g'^2 - g g'' of a deviatoric shape.

    Evaluated from the hand-differentiated g' and g'' of each shape, so
    the sign near zero margin is not polluted by differencing noise.
    Nonnegative on [0, pi/3] (with g > 0) iff the deviatoric section is
    convex.
    """
    import numpy as np

    _check_theta(theta)
    xp, th = namespace(theta)
    g, g1, g2 = shape._jet(xp, th, 2)
    out = g * g + 2.0 * g1 * g1 - g * g2
    return float(out) if np.ndim(theta) == 0 else out

def hessian_qg(s1: float, s2: float, shape) -> np.ndarray:
    """Closed-form Hessian of q/g(theta) in two deviatoric components.

    With m = (S2, -S1) the Hessian equals

        27/4 * (g^2 + 2 g'^2 - g g'') / (q^3 g^3) * outer(m, m),

    a rank-one matrix.  The mixed q-theta terms cancel identically, which
    is what makes this compact form possible.  Continuous across the
    deviatoric meridians (sin 3 theta = 0).  q and theta are those of
    :func:`invariants`, which raises DomainError; DegenerateState where it
    flags the state hydrostatic.
    """
    import numpy as np

    _, q, theta, hydrostatic = _state((s1, s2, -s1 - s2))[1]
    if hydrostatic:
        raise DegenerateState("Hessian of q/g undefined at q = 0")
    g = shape.g(theta)
    curv = deviatoric_curvature(theta, shape)
    mvec = np.array([s2, -s1])
    return 27.0 / 4.0 * curv / (q**3 * g**3) * np.outer(mvec, mvec)

def powerlaw_quadratic(x, beta: float, n: float):
    """Appendix-style quadratic in x = -cos 3 theta for power-law convexity.

    a x^2 + b x + c with a = beta^2 (n^2 - 9), b = beta n (1+beta)(9-2n)
    and c = n^2 (1+beta)^2 + 9 beta^2 (1-n).  Nonnegative on [-1, 1] iff
    the deviatoric section is convex; the interval is symmetric so the
    sign of b does not change that, only which theta a given x is (x = -1
    is theta = 0 in this Lode convention).
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    a, b, c = _powerlaw_coefficients(beta, n)
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

class ConvexityReport(Record):
    """Outcome of certifying a criterion.

    ``beta_interval`` is the convex beta interval of the native shape (None
    for the other shapes).  ``meridian_worst`` (Phi, margin) and
    ``deviatoric_worst`` (theta, margin) come from the records'
    ``convexity()``: the margin is the parameter's signed distance from the
    condition's boundary (beta for the native and power-law shapes, k - 7/9,
    e - 1/2, min(m - 1, alpha, 2 - alpha) for the cap meridian), noted
    rather than failed within BOUNDARY_TOL of zero.  A value with no finite witness (the Phi of a meridian, whose
    condition holds at every Phi; a linear meridian's margin) is NaN or
    infinite, which :meth:`to_dict` writes as None.
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

def certify(crit: Criterion) -> ConvexityReport:
    """Certify convexity of a criterion specification.

    Reads the exact condition of the meridian and of the deviatoric shape
    from their ``convexity()``; F is convex iff both hold.  The quadratic
    A q^2 term never affects the verdict.
    """
    meridian_ok, meridian_margin, phi, meridian_note = crit.meridian.convexity()
    deviatoric_ok, deviatoric_margin, theta, deviatoric_note = crit.shape.convexity()
    notes = [note for note in (meridian_note, deviatoric_note) if note]
    if crit.A > 0.0:
        notes.append("quadratic term A q^2 with A >= 0 preserves convexity")
    return ConvexityReport(
        admissible=bool(meridian_ok and deviatoric_ok),
        beta_interval=crit.shape.beta_interval,
        meridian_ok=bool(meridian_ok),
        meridian_worst=(phi, meridian_margin),
        deviatoric_ok=bool(deviatoric_ok),
        deviatoric_worst=(theta, deviatoric_margin),
        notes=tuple(notes),
    )
