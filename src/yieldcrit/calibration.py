"""Bound-constrained least-squares calibration of criterion parameters.

Experimental yield points, given either as invariant triples (p, q, theta)
or as principal stresses, are fitted by minimizing one of two residual
definitions:

  * ``meridian_distance``: (q_i - q_surface(p_i, theta_i)) / mean(q),
    matching how meridian and deviatoric section plots are compared;
  * ``function_value``: F(sigma_i) / s0_i with a per-point normalization
    s0_i = max(B q_i, |f(p_i)|, 0.01 pc), which handles mixed data.

Points falling outside the elastic cap do not see the raw +inf of the
meridian function; they get a finite penalty residual w (1 + dist) so the
objective stays continuous for the optimizer.

The search is the Trust Region Reflective method (:mod:`yieldcrit.trf`,
an in-house port of scipy's ``trf``, Jacobian-scaled) on the box of
parameter bounds itself.  It works in log(value) for a parameter whose
positive bounds span more than a factor of 10 and in the value otherwise.
Its Jacobian is closed-form when every free parameter belongs to a cap
meridian (M, pc, c, m, alpha) and taken by forward differences otherwise.
When no initial guess is supplied it runs from seeded starts drawn
uniformly in those coordinates, all in lockstep: the residuals of every
start come from one array evaluation, with the free parameters as
columns of the criterion (:meth:`FitProblem.rows`), and no validated
Criterion is built per evaluation.  A start whose initial residuals are
not finite takes no step; there is no fallback search.  A fit reports
``converged`` only for a convex result that, with several starts, at
least two starts agree on.  Fits are deterministic given (dataset, init,
seed).
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from . import trf
from .convexity import ConvexityReport, certify
from .criterion import CapMeridian, Criterion, _params, _record, _surface_q_body, _yield_body, cap_h1
from .errors import InsufficientData, ParseError, ValidationError
from .invariants import _theta_in_range, invariants

FITTABLE = ("M", "pc", "c", "m", "alpha", "beta", "gamma", "Gamma", "A", "e", "k", "n")


def __getattr__(name: str):
    # perfbench's tracer (perfbench/families.py) wraps these scipy names
    # when it traces; fit calls neither, and nothing else loads scipy
    if name in ("least_squares", "minimize"):
        from scipy import optimize

        return getattr(optimize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitDataset:
    """Observed yield points as (p, q, theta) rows with positive weights."""

    points: np.ndarray  # (n, 3)
    weights: np.ndarray  # (n,)
    meta: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValidationError(f"points must be an (n, 3) array, got shape {pts.shape}")
        if w.shape != (pts.shape[0],):
            raise ValidationError("weights must match the number of points")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("points must be finite")
        if not np.all((w > 0.0) & np.isfinite(w)):
            raise ValidationError("weights must be positive and finite")
        if not _theta_in_range(pts[:, 2]):
            raise ValidationError("theta entries must lie in [0, pi/3]")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.points.shape[0]


def _dataset_from_rows(rows, weights, meta) -> FitDataset:
    return FitDataset(points=np.array(rows, dtype=float), weights=np.array(weights), meta=meta)


def load_dataset(source, meta: Mapping[str, str] | None = None) -> FitDataset:
    """Parse a yield-point CSV into a FitDataset.

    ``source`` may be a path, an open text file, or the CSV text itself.
    The header row is either "p,q,theta[,w]" (invariants, radians) or
    "s1,s2,s3[,w]" (principal stresses, converted internally).  Lines
    starting with '#' are comments.  Raises ParseError with the offending
    line number for malformed rows and ValidationError for out-of-range
    values.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        s = os.fspath(source) if not isinstance(source, str) else source
        if isinstance(s, str) and "\n" not in s and os.path.exists(s):
            with open(s, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = s

    header = None
    rows: list[tuple[float, float, float]] = []
    weights: list[float] = []
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if header is None:
            header = [f.lower() for f in fields]
            if header[:3] == ["p", "q", "theta"]:
                principal = False
            elif header[:3] == ["s1", "s2", "s3"]:
                principal = True
            else:
                raise ParseError(
                    f"header must start with 'p,q,theta' or 's1,s2,s3', got {line!r}", lineno
                )
            has_w = len(header) == 4 and header[3] == "w"
            if len(header) > 4 or (len(header) == 4 and not has_w):
                raise ParseError(f"unexpected columns in header {line!r}", lineno)
            continue
        expected = 4 if has_w else 3
        if len(fields) != expected:
            raise ParseError(f"expected {expected} fields, got {len(fields)}", lineno)
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise ParseError(str(exc), lineno)
        if not all(math.isfinite(v) for v in values):
            raise ValidationError(f"line {lineno}: values must be finite, got {line!r}")
        w = values[3] if has_w else 1.0
        if w <= 0.0:
            raise ValidationError(f"line {lineno}: weight must be positive, got {w}")
        if principal:
            inv = invariants(values[:3])
            rows.append((inv.p, inv.q, inv.theta))
        else:
            p, q, th = values[:3]
            if q < 0.0:
                raise ValidationError(f"line {lineno}: q must be nonnegative, got {q}")
            if not _theta_in_range(th):
                raise ValidationError(f"line {lineno}: theta={th} outside [0, pi/3]")
            rows.append((p, q, th))
        weights.append(w)
    if header is None or not rows:
        raise ParseError("no data rows found", None)
    meta_t = tuple(sorted((meta or {}).items()))
    return _dataset_from_rows(rows, weights, meta_t)


# ---------------------------------------------------------------------------
# Problem definition
# ---------------------------------------------------------------------------

# Default admissible box bounds for the dimensionless parameters; stress
# scaled parameters (pc, c, A) default to a window around the template.
_DEFAULT_BOUNDS = {
    "M": (1e-4, 1e3),
    "m": (1.0 + 1e-6, 60.0),
    "alpha": (1e-6, 2.0 - 1e-6),
    "beta": (0.0, 2.0),  # convex for every gamma
    "gamma": (0.0, 1.0 - 1e-9),
    "Gamma": (1e-4, 1e3),
    "e": (0.5 + 1e-9, 1.0),
    "k": (0.777 + 1e-9, 1.0),
    "n": (1e-3, 40.0),
}


@dataclass(frozen=True)
class FitProblem:
    """A calibration problem: template criterion, free names, bounds, mode.

    A bound given for a free parameter must be admissible at both ends,
    since the fit may evaluate the criterion there; ValidationError
    otherwise.
    """

    template: Criterion
    free: tuple[str, ...]
    bounds: tuple[tuple[str, tuple[float, float]], ...] = ()
    residual_mode: str = "meridian_distance"

    def __post_init__(self):
        if self.residual_mode not in ("meridian_distance", "function_value"):
            raise ValidationError(f"unknown residual mode {self.residual_mode!r}")
        free = tuple(self.free)
        if len(set(free)) != len(free):
            raise ValidationError(f"duplicate free parameters in {free}")
        for name in free:
            if name not in FITTABLE:
                raise ValidationError(f"unknown parameter {name!r}; choose from {FITTABLE}")
            self._locate(name)  # raises if the template has no such field
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "bounds", tuple(self.bounds))
        for name, (lo, hi) in self.bounds:
            if not (lo < hi):
                raise ValidationError(f"empty bound interval for {name!r}: ({lo}, {hi})")
            if name in free:
                # the search may evaluate the criterion at either end
                for end in (lo, hi):
                    try:
                        self.with_values({name: end})
                    except ValidationError as exc:
                        raise ValidationError(
                            f"bound ({lo}, {hi}) for {name!r} is not admissible: {exc}"
                        ) from None

    def _locate(self, name: str) -> str:
        """The record of the template that holds ``name``: meridian, shape or criterion."""
        for where in ("meridian", "shape"):
            if name in _params(type(getattr(self.template, where))):
                return where
        if name == "A":
            return "criterion"
        raise ValidationError(f"parameter {name!r} does not apply to this template")

    def bound_of(self, name: str) -> tuple[float, float]:
        for key, interval in self.bounds:
            if key == name:
                return interval
        if name in _DEFAULT_BOUNDS:
            return _DEFAULT_BOUNDS[name]
        # Stress-scaled defaults from the template value.
        current = self.value_of(name)
        if name == "pc":
            return (current / 1e3, current * 1e3)
        if name == "c":
            # c = 0 takes the scale of the meridian: pc for a cap, 1 for a cone
            ref = current if current > 0.0 else self.template.meridian.scale
            return (0.0, 10.0 * ref)
        if name == "A":
            ref = current if current > 0.0 else 1.0
            return (0.0, 1e3 * ref)
        raise ValidationError(f"no bounds available for {name!r}")

    def value_of(self, name: str) -> float:
        where = self._locate(name)
        t = self.template
        return getattr(t if where == "criterion" else getattr(t, where), name)

    def with_values(self, values: Mapping[str, float]) -> Criterion:
        """Template with the given parameter overrides applied."""
        return self._set({name: float(v) for name, v in values.items()}, replace)

    def rows(self, values: np.ndarray) -> Criterion:
        """The template with free parameter j set to column j of ``values``.

        One row of ``values`` per fit start, so each free field is an (n, 1)
        column and every formula body broadcasts over the starts.  Not
        validated: the search keeps its points inside admissible bounds.
        """
        columns = {name: values[:, j : j + 1] for j, name in enumerate(self.free)}
        return self._set(columns, _unvalidated)

    def _set(self, values: Mapping, rebuild) -> Criterion:
        """The template with the named parameters set, each record rebuilt by ``rebuild``."""
        changes: dict = {"criterion": {}, "meridian": {}, "shape": {}}
        for name, value in values.items():
            changes[self._locate(name)][name] = value
        t = self.template
        return rebuild(
            t,
            meridian=rebuild(t.meridian, **changes["meridian"]),
            shape=rebuild(t.shape, **changes["shape"]),
            **changes["criterion"],
        )


def _unvalidated(record, **fields):
    """A frozen record with some fields replaced, without its checks."""
    return _record(type(record), record.__dict__, **fields)


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------


def _cap_distance(crit: Criterion, p: np.ndarray) -> np.ndarray:
    """dist(Phi, [0,1]) for cap meridians, a scaled analogue otherwise."""
    if isinstance(crit.meridian, CapMeridian):
        phi = crit.meridian.phi(p)
        return np.maximum(0.0, np.maximum(-phi, phi - 1.0))
    scale = np.maximum(np.maximum(crit.meridian.c, np.mean(np.abs(p))), 1e-30)
    return np.maximum(0.0, -(p + crit.meridian.c)) / scale


def residual_vector(crit: Criterion, dataset: FitDataset, mode: str) -> np.ndarray:
    """Weighted, normalized residuals of a criterion against a dataset.

    For a criterion from :meth:`FitProblem.rows` the result has one row of
    residuals per row of parameter values.
    """
    p, q, th = dataset.points.T
    w = dataset.weights
    f = crit.meridian.f_array(p)
    g = crit.shape.g(th)
    penalty = w * (1.0 + _cap_distance(crit, p))
    if mode == "meridian_distance":
        # the surface radius is NaN where it does not exist
        qs = _surface_q_body(f, g, crit, np)
        outside = np.isnan(qs)
        qbar = float(np.mean(q))
        if qbar <= 0.0:
            qbar = 1.0
        return np.where(outside, penalty, w * (q - np.where(outside, 0.0, qs)) / qbar)
    if mode != "function_value":
        raise ValidationError(f"unknown residual mode {mode!r}")
    inside = np.isfinite(f)
    f = np.where(inside, f, 0.0)
    if isinstance(crit.meridian, CapMeridian):
        floor = 0.01 * crit.meridian.pc
    else:
        floor = 0.01 * max(float(np.mean(crit.B * q)), 1e-30)
    F = _yield_body(f, q, g, False, crit, np)
    s0 = np.maximum(np.maximum(crit.B * q, np.abs(f)), floor)
    return np.where(inside, w * F / s0, penalty)


def residuals(problem: FitProblem, params: Mapping[str, float], dataset: FitDataset) -> np.ndarray:
    """Residual vector at the given free-parameter values."""
    for name in params:
        if name in problem.free:
            lo, hi = problem.bound_of(name)
            v = params[name]
            if not (lo - 1e-12 <= v <= hi + 1e-12):
                raise ValidationError(f"{name}={v} outside its bounds ({lo}, {hi})")
    crit = problem.with_values(params)
    return residual_vector(crit, dataset, problem.residual_mode)


def goodness(crit: Criterion, dataset: FitDataset, mode: str = "meridian_distance"):
    """(rms, max_abs, per_point) residual statistics at fixed parameters."""
    r = residual_vector(crit, dataset, mode)
    return float(np.sqrt(np.mean(r * r))), float(np.max(np.abs(r))), r


# Residual evaluations allowed per trust-region run.  ``trf`` counts one
# per trial step and none for a difference Jacobian, so a run with n free
# parameters spends at most about 200 (n + 1) evaluations in all.
_MAX_STEPS = 200


def _cap_partials(crit: Criterion, dataset: FitDataset, mode: str, names) -> dict:
    """Closed-form d(residual)/d(name) for cap-meridian parameters.

    Follows the branches of :func:`residual_vector` at fixed branch choice:
    a point outside the cap sees the derivative of its penalty, and a
    point where the meridian root vanishes (h = 0, a cap end) gets a zero
    entry, since sqrt(h) has no derivative there.  Like the residuals, the
    columns have one row per start for a criterion from
    :meth:`FitProblem.rows`.
    """
    p, q, th = dataset.points.T
    w = dataset.weights
    mer = crit.meridian
    span = mer.pc + mer.c
    phi = (p + mer.c) / span
    inside = (phi >= 0.0) & (phi <= 1.0)
    ph = np.where(inside, phi, 0.5)
    lin = 2.0 * (1.0 - mer.alpha) * ph + mer.alpha
    phm = ph**mer.m
    h = (ph - phm) * lin
    root = np.sqrt(np.maximum(h, 0.0))
    f = -mer.M * mer.pc * root
    # df/dh = -M pc / (2 sqrt h), set to 0 where h <= 0
    f_h = np.where(h > 0.0, -mer.M * mer.pc / (2.0 * np.where(h > 0.0, root, 1.0)), 0.0)
    df = {}
    if "M" in names:
        df["M"] = -mer.pc * root
    if "pc" in names or "c" in names:
        f_phi = f_h * cap_h1(ph, mer.m, mer.alpha) / span
        df["pc"] = -mer.M * root - f_phi * ph
        df["c"] = f_phi * (1.0 - ph)
    if "m" in names:
        df["m"] = -f_h * phm * np.log(np.where(ph > 0.0, ph, 1.0)) * lin
    if "alpha" in names:
        df["alpha"] = f_h * (ph - phm) * (1.0 - 2.0 * ph)

    # every residual depends on the parameters through f alone, apart
    # from the pc-scaled floor of s0 in function_value mode
    g = crit.shape.g(th)
    floor_pc = 0.0
    if mode == "meridian_distance":
        qbar = float(np.mean(q))
        if qbar <= 0.0:
            qbar = 1.0
        # q_surface solves A q^2 + B q / g + f = 0, so dq_surface/df = -1/D
        bg = crit.B / g
        r_f = w / (qbar * np.sqrt(bg * bg - 4.0 * crit.A * f))
    else:
        # r = w F / s0 with s0 = max(B q, -f, 0.01 pc)
        bq = crit.B * q
        floor = 0.01 * mer.pc
        s0 = np.maximum(np.maximum(bq, -f), floor)
        r_s0 = (crit.A * q**2 + bq / g + f) / s0
        on_f = (-f >= bq) & (-f >= floor)
        r_f = w / s0 * (1.0 + np.where(on_f, r_s0, 0.0))
        if "pc" in names:
            floor_pc = np.where(floor > np.maximum(bq, -f), -0.01 * w * r_s0 / s0, 0.0)
    cols = {n: r_f * df[n] for n in names}
    if "pc" in names:
        cols["pc"] = cols["pc"] + floor_pc
    if inside.all():
        return cols
    # outside the cap the residual is the penalty w (1 + dist(Phi, [0, 1]))
    w_dist = w * np.where(phi < 0.0, -1.0, 1.0)
    dphi = {"pc": -phi / span, "c": (1.0 - phi) / span}
    return {n: np.where(inside, cols[n], w_dist * dphi[n] if n in dphi else 0.0) for n in names}


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitStart:
    """One start of a fit: where it began, where it ended and the rms there,
    the residual evaluations it spent (difference Jacobians included) and
    why it stopped: a ``trf`` stop test ("gtol", "ftol", "xtol",
    "ftol+xtol"), "budget" once its evaluations ran out, or "nonfinite"
    when its initial residuals were not finite and it took no step."""

    start: tuple[tuple[str, float], ...]
    values: tuple[tuple[str, float], ...]
    rms: float
    evaluations: int
    stop: str


@dataclass(frozen=True)
class FitResult:
    """Calibrated criterion with residual statistics and a convexity audit.

    ``n_agree`` counts the starts whose final rms is within
    1e-10 + 1e-6 rms of the winner's, the winner included; ``starts`` has
    one record per start.
    """

    criterion: Criterion
    values: tuple[tuple[str, float], ...]
    rms: float
    iterations: int
    converged: bool
    convexity: ConvexityReport
    n_agree: int
    starts: tuple[FitStart, ...]

    def to_dict(self) -> dict:
        d = self.criterion.to_dict()
        d["rms"] = self.rms
        d["converged"] = self.converged
        d["free"] = {k: v for k, v in self.values}
        d["iterations"] = self.iterations
        return d


class _SearchCoordinates:
    """The coordinates the optimizer works in, one per free parameter.

    A parameter whose positive bounds span more than a factor of 10 is
    searched in log(value), any other in the value itself.  Points are
    rows of an (n, k) array, one per start.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo, self.hi = lo, hi
        self.logs = (lo > 0.0) & (hi > 10.0 * lo)
        self.ulo, self.uhi = self.coords(lo), self.coords(hi)

    def coords(self, v: np.ndarray) -> np.ndarray:
        return np.where(self.logs, np.log(np.where(self.logs, v, 1.0)), v)

    def values(self, u: np.ndarray) -> np.ndarray:
        """Parameter values, clipped so that rounding in exp stays in bounds."""
        v = np.array(u, dtype=float)
        v[:, self.logs] = np.exp(v[:, self.logs])
        return np.clip(v, self.lo, self.hi)


def _rms(r: np.ndarray) -> np.ndarray:
    return np.sqrt(np.mean(r * r, axis=-1))


def fit(
    problem: FitProblem,
    dataset: FitDataset,
    init: Mapping[str, float] | None = None,
    seed: int = 0,
    n_starts: int = 16,
) -> FitResult:
    """Calibrate the problem's free parameters against the dataset.

    The search is the Trust Region Reflective method on the box of bounds
    (:mod:`yieldcrit.trf`, a port of scipy's ``trf``, Jacobian-scaled) in
    coordinates that are logarithmic for a parameter whose positive bounds
    span more than a factor of 10 and linear otherwise.  When every free
    parameter belongs to a cap meridian (M, pc, c, m, alpha) the Jacobian
    is closed-form; otherwise it is taken by forward differences.  Each
    start may make 200 residual evaluations, difference Jacobians aside.
    A single start is ``init`` when given; otherwise ``n_starts`` seeded
    starts are drawn uniformly in the search coordinates, inside the
    central 90% of each interval.  All starts run in lockstep, and the
    best result wins, ties broken by start index, so the outcome is
    deterministic.  A start whose initial residuals are not finite takes
    no step.  The returned rms never exceeds the rms at the start point.

    ``converged`` needs a convex result (convexity certification) and,
    with two or more starts, at least two starts that agree on the winning
    rms (``n_agree >= 2``); a single start must have met a stop test.  The
    best parameters so far are returned either way.

    Raises InsufficientData when the dataset has fewer points than there
    are free parameters, and ValidationError for an ``init`` that misses a
    free parameter or fewer than one seeded start.
    """
    names = problem.free
    k = len(names)
    if len(dataset) < k:
        raise InsufficientData(f"{len(dataset)} points cannot determine {k} free parameters")
    mode = problem.residual_mode
    lo = np.array([problem.bound_of(n)[0] for n in names])
    hi = np.array([problem.bound_of(n)[1] for n in names])
    box = _SearchCoordinates(lo, hi)
    # cap-meridian parameters have closed-form residual derivatives
    closed = isinstance(problem.template.meridian, CapMeridian) and all(
        problem._locate(n) == "meridian" for n in names
    )

    def resid_v(v: np.ndarray) -> np.ndarray:
        r = residual_vector(problem.rows(v), dataset, mode)
        return np.broadcast_to(r, (len(v), len(dataset)))

    def resid_u(u: np.ndarray) -> np.ndarray:
        return resid_v(box.values(u))

    def jac_u(u: np.ndarray, r: np.ndarray) -> np.ndarray:
        v = box.values(u)
        if closed:
            cols = _cap_partials(problem.rows(v), dataset, mode, names)
            J = np.stack([np.broadcast_to(cols[n], r.shape) for n in names], axis=-1)
            # chain rule d/du = v d/dv on the log coordinates
            return J * np.where(box.logs, v, 1.0)[:, None, :]
        return trf.difference_jacobian(resid_u, u, r, box.ulo, box.uhi)

    if init is not None:
        missing = [n for n in names if n not in init]
        if missing:
            raise ValidationError(f"init must cover every free parameter; missing {missing}")
        v0 = np.clip(np.array([[init[n] for n in names]], dtype=float), lo, hi)
        u0 = trf.strictly_feasible(box.coords(v0), box.ulo, box.uhi, 1e-10)
        f0, r0 = resid_u(u0), resid_v(v0)
    elif n_starts < 1:
        raise ValidationError(f"n_starts must be at least 1, got {n_starts}")
    else:
        rng = np.random.default_rng(seed)
        u0 = box.ulo + (box.uhi - box.ulo) * rng.uniform(0.05, 0.95, size=(n_starts, k))
        v0 = box.values(u0)
        f0 = r0 = resid_v(v0)

    n = len(u0)
    rms = _rms(r0)
    rms[np.isnan(rms)] = np.inf
    v, nfev, evaluations = v0.copy(), np.ones(n, dtype=int), np.ones(n, dtype=int)
    stops = ["nonfinite"] * n
    improved = np.zeros(n, dtype=bool)
    ok = np.flatnonzero(np.all(np.isfinite(f0), axis=1))
    if ok.size:
        x, f, nfev[ok], njev, status = trf.solve(
            resid_u, jac_u, u0[ok], f0[ok], box.ulo, box.uhi, _MAX_STEPS
        )
        evaluations[ok] = nfev[ok] + (0 if closed else k * njev)
        for j, code in zip(ok, status):
            stops[j] = trf.STOPS[code]
        rms1 = _rms(f)
        improved[ok] = won = rms1 <= rms[ok]
        rms[ok[won]], v[ok[won]] = rms1[won], box.values(x[won])

    best = int(np.argmin(rms))
    values = {name: float(x) for name, x in zip(names, v[best])}
    crit = problem.with_values(values)
    report = certify(crit)
    with np.errstate(invalid="ignore"):  # inf - inf where no start had finite residuals
        agree = (rms == rms[best]) | (np.abs(rms - rms[best]) <= 1e-10 + 1e-6 * rms[best])
    n_agree = int(np.sum(agree))
    if n > 1:
        converged = n_agree >= 2
    else:
        converged = bool(improved[0]) and stops[0] not in ("budget", "nonfinite")
    starts = tuple(
        FitStart(
            start=tuple(zip(names, map(float, v0[j]))),
            values=tuple(zip(names, map(float, v[j]))),
            rms=float(rms[j]),
            evaluations=int(evaluations[j]),
            stop=stops[j],
        )
        for j in range(n)
    )
    return FitResult(
        criterion=crit,
        values=tuple(values.items()),
        rms=float(rms[best]),
        iterations=int(nfev[best]) if improved[best] else 0,
        converged=bool(converged and report.admissible),
        convexity=report,
        n_agree=n_agree,
        starts=starts,
    )
