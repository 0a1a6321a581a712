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

:func:`fit` runs the Trust Region Reflective method of :mod:`yieldcrit.trf`
from all its starts in lockstep.  Each step is one :func:`_model` call that
gives the residuals and the closed-form Jacobian of every start, with the
free parameters as columns of the criterion (:meth:`FitProblem.rows`).
There is no fallback search.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import replace
from typing import Mapping

import numpy as np

from . import trf
from .convexity import ConvexityReport, certify
from .criterion import GAMMA_LIMIT, Criterion, _params, _surface_q_body, _yield_body
from .errors import DomainError, InsufficientData, ParseError, ValidationError, _typed, count, real
from .invariants import Record, _check_theta, _float_array, _record, invariants

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


def _check_rows(points: np.ndarray, where) -> None:
    """ValidationError, led by ``where(i)``, for the first row i of (p, q, theta) points whose
    q is negative or whose theta fails the Lode-angle rule, :func:`invariants._check_theta`."""
    for i, (_, q, th) in enumerate(points.tolist()):
        if q < 0.0:
            raise ValidationError(f"{where(i)}: q must be nonnegative, got {q}")
        try:
            _check_theta(th)
        except DomainError as exc:
            raise ValidationError(f"{where(i)}: {exc}") from None


class FitDataset(Record):
    """Observed yield points as (p, q, theta) rows with positive weights."""

    points: np.ndarray  # (n, 3)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        try:
            pts, w = _float_array(self.points), _float_array(self.weights)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"points and weights must be arrays of numbers, got {self.points!r} and {self.weights!r}"
            ) from None
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValidationError(f"points must be an (n, 3) array, got shape {pts.shape}")
        if w.shape != (pts.shape[0],):
            raise ValidationError("weights must match the number of points")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("points must be finite")
        if not np.all((w > 0.0) & np.isfinite(w)):
            raise ValidationError("weights must be positive and finite")
        _check_rows(pts, "row {}".format)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.points.shape[0]


def load_dataset(source) -> FitDataset:
    """Parse a yield-point CSV into a FitDataset.

    ``source`` is the CSV text itself (a ``str``), a path (an
    ``os.PathLike``) or an open text file (anything with ``read``).  The
    header row is either "p,q,theta[,w]" (invariants, radians) or
    "s1,s2,s3[,w]" (principal stresses, converted internally).  Lines
    starting with '#' are comments.  Raises ParseError with the offending
    line number for malformed rows and ValidationError for out-of-range
    values or a source of another kind.
    """
    if isinstance(source, str):
        text = source
    elif isinstance(source, os.PathLike):
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    elif hasattr(source, "read"):
        text = source.read()
    else:
        raise ValidationError(
            f"source must be CSV text, a path or a text file, got {type(source).__name__}"
        )

    header = None
    rows: list[tuple[float, float, float]] = []
    weights: list[float] = []
    linenos: list[int] = []
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
            rows.append(tuple(values[:3]))
        weights.append(w)
        linenos.append(lineno)
    if header is None or not rows:
        raise ParseError("no data rows found", None)
    points = np.array(rows, dtype=float)
    _check_rows(points, lambda i: f"line {linenos[i]}")
    return FitDataset(points=points, weights=np.array(weights))


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
    "gamma": (0.0, GAMMA_LIMIT),
    "Gamma": (1e-4, 1e3),
    "e": (0.5 + 1e-9, 1.0),
    "k": (0.777 + 1e-9, 1.0),
    "n": (1e-3, 40.0),
}


class FitProblem(Record):
    """A calibration problem: template criterion, free names, bounds, mode.

    ``free`` is a list of names, ``bounds`` one of (name, [low, high]) with
    finite ends.  A bound must name a parameter of the template, and one for
    a free parameter be admissible at both ends, since the fit may evaluate
    the criterion there; ValidationError otherwise.
    """

    template: Criterion
    free: tuple[str, ...]
    bounds: tuple[tuple[str, tuple[float, float]], ...] = ()
    residual_mode: str = "meridian_distance"

    def __post_init__(self):
        _typed("FitProblem", (self.template, Criterion))
        if not isinstance(self.free, (list, tuple)) or not all(isinstance(n, str) for n in self.free):
            raise ValidationError(f"free must be a list of parameter names, got {self.free!r}")
        if self.residual_mode not in ("meridian_distance", "function_value"):
            raise ValidationError(f"unknown residual mode {self.residual_mode!r}")
        free = tuple(self.free)
        if not free:
            raise ValidationError(f"no free parameters to fit; choose from {FITTABLE}")
        if len(set(free)) != len(free):
            raise ValidationError(f"duplicate free parameters in {free}")
        # the record of the template that holds each name, found once
        t = self.template
        homes = {n: w for w in ("shape", "meridian") for n in _params(type(getattr(t, w)))}
        object.__setattr__(self, "_homes", {**homes, "A": "criterion"})
        for name in free:
            if name not in FITTABLE:
                raise ValidationError(f"unknown parameter {name!r}; choose from {FITTABLE}")
            self._locate(name)  # raises if the template has no such field
        object.__setattr__(self, "free", free)
        if not isinstance(self.bounds, (list, tuple)):
            raise ValidationError(f"bounds must be a list of (name, [low, high]), got {self.bounds!r}")
        bounds = []
        for entry in self.bounds:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2 and isinstance(entry[0], str)):
                raise ValidationError(f"a bounds entry must be a name and [low, high], got {entry!r}")
            name, pair = entry
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ValidationError(f"bounds for {name!r} must be [low, high], got {pair!r}")
            lo, hi = (real(v, f"each bound for {name!r}") for v in pair)
            self._locate(name)
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
            bounds.append((name, (lo, hi)))
        object.__setattr__(self, "bounds", tuple(bounds))

    def _locate(self, name: str) -> str:
        """The record of the template that holds ``name``: meridian, shape or criterion."""
        if name not in self._homes:
            raise ValidationError(f"parameter {name!r} does not apply to this template")
        return self._homes[name]

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
        # A, the last fittable name with no default
        ref = current if current > 0.0 else 1.0
        return (0.0, 1e3 * ref)

    def value_of(self, name: str) -> float:
        where = self._locate(name)
        t = self.template
        return getattr(t if where == "criterion" else getattr(t, where), name)

    def with_values(self, values: Mapping[str, float]) -> Criterion:
        """Template with the given parameter overrides applied."""
        return self._set(values, replace)

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
        records = {w: rebuild(getattr(t, w), **changes[w]) for w in ("meridian", "shape") if changes[w]}
        return rebuild(t, **records, **changes["criterion"])


def _unvalidated(record, **fields):
    """A frozen record with some fields replaced, without its checks."""
    return _record(type(record), {**record.__dict__, **fields})


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------


def _columns(dataset: FitDataset) -> tuple:
    """(p, q, theta, weights, mean(q) or 1 where it is not positive, and a dict
    where :func:`_model` keeps what the free names leave fixed): what the
    residuals read of a dataset, for one template and one set of free names."""
    p, q, th = dataset.points.T
    qbar = float(np.mean(q))
    return p, q, th, dataset.weights, qbar if qbar > 0.0 else 1.0, {}


def _model(crit: Criterion, data: tuple, mode: str, names=()):
    """(residuals, columns or None): the residuals of a criterion against
    the data and, in the same pass, the closed-form derivative column of
    each parameter in ``names``.  A residual reads the parameters only
    through f(p), g(theta) and A, so each column is r_f df + r_g dg + r_A
    over the partials the meridian and shape records give.  The derivatives
    hold the branch fixed: a point outside the cap or beyond the apex sees
    the derivative of its penalty, and one where h = 0 (a cap end) a zero
    df.  For a criterion from :meth:`FitProblem.rows` both have one row per
    row of values."""
    if mode not in ("meridian_distance", "function_value"):
        raise ValidationError(f"unknown residual mode {mode!r}")
    p, q, th, w, qbar, kept = data
    mer, shape = crit.meridian, crit.shape
    of_shape = [n for n in names if n in _params(type(shape))]
    of_mer = [n for n in names if n in _params(type(mer))]
    # what no free name moves is the same at every call with this data
    if of_shape or "g" not in kept:
        kept["g"] = shape._jet(np, th, 0, of_shape)
    if any(n in mer._place_fields for n in of_mer) or "place" not in kept:
        at = mer._place(p, np, of_mer)
        kept["place"] = at, mer._penalty(p, at, of_mer)
    g_jet, (at, (dist, ddist)) = kept["g"], kept["place"]
    g = g_jet[0]
    f_jet = mer._jet(at, np, 0, of_mer)
    f = f_jet[0]
    if mode == "meridian_distance":
        # the surface radius is NaN where it does not exist
        qs = _surface_q_body(f, g, crit, np)
        outside = np.isnan(qs)
        qs = np.where(outside, 0.0, qs)
        r = w * (q - qs) / qbar
    else:
        outside = ~np.isfinite(f)
        f = np.where(outside, 0.0, f)
        bq = crit.B * q
        floor, dfloor = mer._s0_floor(bq)
        F = _yield_body(f, q, g, False, crit, np)
        abs_f = np.abs(f)
        s0 = np.maximum(np.maximum(bq, abs_f), floor)
        r = w * F / s0
    off = outside.any()
    if off:
        # there the residual is the penalty w (1 + dist)
        r = np.where(outside, w * (1.0 + dist), r)
    if not names:
        return r, None

    # F = A q^2 + B q / g + f reads the parameters through f, g and A
    if mode == "meridian_distance":
        # q_surface solves F = 0, so it moves by -dF / (dF/dq), where
        # dF/dq = 2 A q_surface + B / g
        r_f = unit = w / (qbar * (2.0 * crit.A * qs + crit.B / g))
        at = qs
    else:
        # r = w F / s0, and s0 = max(B q, |f|, floor) moves with the largest
        unit, at = w / s0, q
        r_s0 = F / s0
        on_f = (abs_f >= bq) & (abs_f >= floor)
        r_f = unit * (1.0 - np.where(on_f, np.sign(f) * r_s0, 0.0))
    cols = {n: r_f * f_jet[-1][n] for n in of_mer}
    if of_shape:
        # where g underflows, r_g and so the column are not finite; the
        # search treats the point as one with residuals that are not finite
        r_g = -unit * crit.B * at / (g * g)
        cols.update((n, r_g * g_jet[-1][n]) for n in of_shape)
    if "A" in names:
        cols["A"] = unit * at * at
    if mode == "function_value":
        for n in dfloor.keys() & cols.keys():
            at_floor = floor > np.maximum(bq, abs_f)
            cols[n] = cols[n] + np.where(at_floor, -dfloor[n] * w * r_s0 / s0, 0.0)
    if off:
        cols = {n: np.where(outside, w * ddist[n] if n in ddist else 0.0, cols[n]) for n in names}
    return r, cols


def residual_vector(crit: Criterion, dataset: FitDataset, mode: str) -> np.ndarray:
    """Weighted, normalized residuals of a criterion against a dataset, one
    row per row of values for a criterion from :meth:`FitProblem.rows`."""
    return _model(crit, _columns(dataset), mode)[0]


def goodness(crit: Criterion, dataset: FitDataset, mode: str = "meridian_distance"):
    """(rms, max_abs, per_point) residual statistics at fixed parameters."""
    r = residual_vector(crit, dataset, mode)
    return float(np.sqrt(np.mean(r * r))), float(np.max(np.abs(r))), r


# Trial steps per trust-region run, one model call each.
_MAX_STEPS = 200

# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


class FitStart(Record):
    """One start of a fit: where it began, where it ended and the rms there,
    its evaluations (one model call per trial step) and why it stopped: a
    ``trf`` stop test ("gtol", "ftol", "xtol", "ftol+xtol"), "budget" once
    its steps ran out, or "nonfinite" when its initial residuals or
    Jacobian were not finite and it took no step."""

    start: tuple[tuple[str, float], ...]
    values: tuple[tuple[str, float], ...]
    rms: float
    evaluations: int
    stop: str


class FitResult(Record):
    """Calibrated criterion with residual statistics and a convexity audit.

    ``n_agree`` counts the starts whose final rms is within
    1e-10 + 1e-6 rms of the winner's, the winner included, and is 0 when
    that rms is not finite; ``starts`` has one record per start.
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
        d = {"rms": self.rms, "converged": self.converged, "free": dict(self.values)}
        return {**self.criterion.to_dict(), **d, "iterations": self.iterations}


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
        return np.minimum(np.maximum(v, self.lo), self.hi)


def _one_pass(problem: FitProblem, dataset: FitDataset, logs):
    """The fit's model: (n, k) values to their (n, m) residuals and their
    (n, m, k) Jacobian, in one :func:`_model` pass over dataset columns read
    once here.  The column of a free name in ``logs`` is the derivative by
    log(value), the search coordinate of that name."""
    names, mode = problem.free, problem.residual_mode
    data = _columns(dataset)
    by_log = [name in logs for name in names]

    def model(v: np.ndarray):
        r, cols = _model(problem.rows(v), data, mode, names)
        J = np.empty(r.shape + (len(names),))
        for j, name in enumerate(names):
            # the chain rule d/du = v d/dv for u = log(v); 1.0 is exact
            np.multiply(cols[name], v[:, j : j + 1] if by_log[j] else 1.0, out=J[:, :, j])
        return r, J

    return model


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
    span more than a factor of 10 and linear otherwise.  Each step is one
    model call per batch of trial points, giving their residuals and
    closed-form Jacobians.  Each start may take 200 trial steps.
    A single start is ``init`` when given; otherwise ``n_starts`` seeded
    starts are drawn uniformly in the search coordinates, inside the
    central 90% of each interval.  All starts run in lockstep, and the
    best result wins, ties broken by start index, so the outcome is
    deterministic.  A start whose initial residuals or Jacobian are not
    finite takes no step.  The returned rms never exceeds the rms at the
    start point.

    ``converged`` needs a convex result (convexity certification) and,
    with two or more starts, at least two starts that agree on the winning
    rms (``n_agree >= 2``); a single start must have met a stop test.  The
    best parameters so far are returned either way.

    Raises InsufficientData when the dataset has fewer points than there
    are free parameters.  ValidationError for a problem or dataset of another
    type, a ``seed`` below 0 or ``n_starts`` below 1 under the count rule, or
    an ``init`` that is not a mapping, holds a value that fails the number
    rule, misses a free name or names a held one.
    """
    _typed("fit", (problem, FitProblem), (dataset, FitDataset))
    seed, n_starts = count(seed, "seed", 0), count(n_starts, "n_starts", 1)
    if init is not None:
        if not isinstance(init, Mapping):
            raise ValidationError(f"init must be an object of values by name, got {init!r}")
        init = {name: real(v, f"init {name!r}") for name, v in init.items()}
    names, k = problem.free, len(problem.free)
    if len(dataset) < k:
        raise InsufficientData(f"{len(dataset)} points cannot determine {k} free parameters")
    lo, hi = np.array([problem.bound_of(n) for n in names]).T
    box = _SearchCoordinates(lo, hi)
    model = _one_pass(problem, dataset, [n for n, log in zip(names, box.logs) if log])

    def fun(u: np.ndarray):
        return model(box.values(u))

    if init is not None:
        missing = [n for n in names if n not in init]
        if missing:
            raise ValidationError(f"init must cover every free parameter; missing {missing}")
        held = [n for n in init if n not in names]
        if held:
            raise ValidationError(f"init must name only free parameters; not free: {held}")
        v0 = np.clip(np.array([[init[n] for n in names]], dtype=float), lo, hi)
        u0 = trf.strictly_feasible(box.coords(v0), box.ulo, box.uhi, 1e-10)
    else:
        rng = np.random.default_rng(seed)
        u0 = box.ulo + (box.uhi - box.ulo) * rng.uniform(0.05, 0.95, size=(n_starts, k))
        v0 = box.values(u0)
    n = len(u0)
    v, nfev = v0.copy(), np.ones(n, dtype=int)
    stops = ["nonfinite"] * n
    improved = np.zeros(n, dtype=bool)
    # A start or trial point may overflow, divide by an underflowed g or
    # meet inf - inf; the search treats it as not finite, so the warnings
    # stay inside, from the first model call to the agreement test.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f0, J0 = fun(u0)
        # init is clipped to its bounds and may move inside them for the search
        r0 = f0 if init is None else model(v0)[0]
        rms = _rms(r0)
        rms[np.isnan(rms)] = np.inf
        ok = np.flatnonzero(trf.measure(f0, J0)[0])
        if ok.size:
            x, f, nfev[ok], status = trf.solve(fun, u0[ok], f0[ok], J0[ok], box.ulo, box.uhi, _MAX_STEPS)
            for j, code in zip(ok, status):
                stops[j] = trf.STOPS[code]
            rms1 = _rms(f)
            improved[ok] = won = rms1 <= rms[ok]
            rms[ok[won]], v[ok[won]] = rms1[won], box.values(x[won])
        best = int(np.argmin(rms))
        agree = (rms == rms[best]) | (np.abs(rms - rms[best]) <= 1e-10 + 1e-6 * rms[best])
        agree &= np.isfinite(rms)  # no two starts agree on an rms that is not finite

    values = {name: float(x) for name, x in zip(names, v[best])}
    crit = problem.with_values(values)
    report = certify(crit)
    n_agree = int(np.sum(agree))
    single = bool(improved[0]) and stops[0] not in ("budget", "nonfinite")
    converged = n_agree >= 2 if n > 1 else single
    starts = tuple(
        FitStart(
            start=tuple(zip(names, map(float, v0[j]))),
            values=tuple(zip(names, map(float, v[j]))),
            rms=float(rms[j]),
            evaluations=int(nfev[j]),
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
