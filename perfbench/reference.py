"""Independent reference model and seeded input generators.

The benchmark never asks the program under test to make its own inputs or
its own expected values.  Everything here is written from the formulas in
the README of the library (meridian f, the four deviatoric shapes g, the
quadratic A q^2 term and the Haigh-Westergaard invariants), so a change to
the library cannot move the inputs or hide a wrong result.  The same seed
gives byte-identical inputs; ``fingerprint`` hashes them for the self-test.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

PI3 = math.pi / 3.0

# The 13 noiseless meridian rows of the library's acceptance gate (the
# paper's calibration table), as (label, seven-parameter record).
MERIDIAN_ROWS = [
    ("sand", dict(M=0.5, pc=0.961, c=0.0, m=2.6, alpha=0.1, beta=0.0, gamma=0.9999)),
    ("clay", dict(M=0.48, pc=1.0, c=0.0, m=5.0, alpha=0.2, beta=0.0, gamma=0.66)),
    ("al powder", dict(M=1.1, pc=1.0, c=0.0, m=3.2, alpha=1.9, beta=1.0, gamma=0.0)),
    ("al-sic powder", dict(M=0.76, pc=1.0, c=0.0, m=3.4, alpha=1.85, beta=1.0, gamma=0.0)),
    ("lead powder", dict(M=0.94, pc=1.0, c=0.0, m=1.8, alpha=0.8, beta=1.0, gamma=0.0)),
    ("lead-steel powder", dict(M=0.64, pc=1.0, c=0.0, m=3.0, alpha=1.5, beta=1.0, gamma=0.0)),
    ("concrete A", dict(M=0.82, pc=100.0, c=0.1, m=2.0, alpha=0.05, beta=1.0, gamma=0.0)),
    ("concrete B", dict(M=0.76, pc=100.0, c=0.2, m=2.0, alpha=0.026, beta=1.0, gamma=0.0)),
    ("chert", dict(M=1.18, pc=50.0, c=0.04, m=2.0, alpha=0.04, beta=1.0, gamma=0.0)),
    ("dolomite", dict(M=0.61, pc=30.0, c=0.02, m=2.0, alpha=0.3, beta=1.0, gamma=0.0)),
    ("methacrylate", dict(M=0.40, pc=1000.0, c=110.0, m=2.0, alpha=0.5, beta=1.0, gamma=0.0)),
    ("epoxy", dict(M=0.51, pc=800.0, c=80.0, m=2.0, alpha=0.62, beta=1.0, gamma=0.0)),
    ("biaxial concrete", dict(M=0.78, pc=5.7, c=0.3, m=2.0, alpha=0.1, beta=0.0, gamma=0.6)),
]
RESIDUAL_MODES = ("meridian_distance", "function_value")
FIT_FREE = ("M", "m", "alpha")

# Each workload draws from its own stream, so adding draws to one family
# never shifts the inputs of another.
STREAMS = {"pointwise": 1, "sections": 2, "calibration": 3, "cli": 4}


def rng_for(seed: int, family: str) -> np.random.Generator:
    return np.random.default_rng([seed, STREAMS[family]])


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


def meridian_f(p: float, spec: dict) -> float:
    """f(p); +inf outside the cap of a "bp" meridian."""
    if spec.get("meridian", "bp") == "linear":
        return -spec["Gamma"] * (p + spec["c"])
    pc, c = spec["pc"], spec["c"]
    phi = (p + c) / (pc + c)
    if phi < 0.0 or phi > 1.0:
        return math.inf
    m, alpha = spec["m"], spec["alpha"]
    h = (phi - phi**m) * (2.0 * (1.0 - alpha) * phi + alpha)
    return -spec["M"] * pc * math.sqrt(max(0.0, h))


def shape_g(theta: float, spec: dict) -> float:
    dev = spec.get("deviatoric")
    if dev is None:
        beta, gamma = spec["beta"], spec["gamma"]
        return 1.0 / math.cos(beta * math.pi / 6.0 - math.acos(gamma * math.cos(3.0 * theta)) / 3.0)
    kind = dev["kind"]
    if kind == "power-law":
        return (1.0 + dev["beta"] * (1.0 + math.cos(3.0 * theta))) ** (-1.0 / dev["n"])
    if kind == "willam-warnke":
        e = dev["e"]
        u = math.cos(theta)
        c2 = 1.0 - e * e
        t = 2.0 * e - 1.0
        rho = 4.0 * c2 * u * u + 5.0 * e * e - 4.0 * e
        return (2.0 * c2 * u + t * math.sqrt(rho)) / (4.0 * c2 * u * u + t * t)
    if kind == "gudehus-argyris":
        k = dev["k"]
        return 2.0 * k / (1.0 + k + (1.0 - k) * math.cos(3.0 * theta))
    raise ValueError(f"unknown deviatoric kind {kind!r}")


def yield_F(p: float, q: float, theta: float, spec: dict) -> float:
    f = meridian_f(p, spec)
    if math.isinf(f):
        return math.inf
    A, B = spec.get("A", 0.0), spec.get("B", 1.0)
    if q == 0.0:
        return f
    return A * q * q + B * q / shape_g(theta, spec) + f


def surface_q(p: float, theta: float, spec: dict) -> float | None:
    """Deviatoric radius of the surface, or None where it does not exist."""
    f = meridian_f(p, spec)
    if math.isinf(f) or f > 0.0:
        return None
    A, B = spec.get("A", 0.0), spec.get("B", 1.0)
    g = shape_g(theta, spec)
    if A == 0.0:
        return -f * g / B
    bg = B / g
    return (-bg + math.sqrt(bg * bg - 4.0 * A * f)) / (2.0 * A)


def residual_scale(p: float, q: float, spec: dict) -> float:
    """Local magnitude of the competing terms of F, for normalizing |F|."""
    f = meridian_f(p, spec)
    if spec.get("meridian", "bp") == "linear":
        floor = 0.01 * spec["Gamma"] * (abs(p) + spec["c"])
    else:
        floor = 0.01 * spec["pc"]
    return max(spec.get("B", 1.0) * q, abs(f) if math.isfinite(f) else 0.0, floor, 1e-300)


def principal(p: float, q: float, theta: float) -> tuple[float, float, float]:
    """Principal stresses (tension positive) with the given invariants."""
    return tuple(-p + (2.0 * q / 3.0) * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3))


def invariants_of(sig) -> tuple[float, float, float]:
    s1, s2, s3 = (float(v) for v in sig)
    p = -(s1 + s2 + s3) / 3.0
    d = (s1 + p, s2 + p, s3 + p)
    j2 = 0.5 * sum(v * v for v in d)
    q = math.sqrt(3.0 * j2)
    if q == 0.0:
        return p, 0.0, 0.0
    j3 = d[0] * d[1] * d[2]
    arg = min(1.0, max(-1.0, 1.5 * math.sqrt(3.0) * j3 / j2**1.5))
    return p, q, math.acos(arg) / 3.0


def fold_theta(phi: float) -> float:
    """Lode angle of a direction phi in the deviatoric plane (six-fold)."""
    t = math.fmod(phi, 2.0 * PI3)
    if t < 0.0:
        t += 2.0 * PI3
    return t if t <= PI3 else 2.0 * PI3 - t


def polygon_convex(points, rel_tol: float = 1e-9) -> bool:
    """Every turn of the closed polygon has the same orientation."""
    pts = np.asarray(points, dtype=float)
    e = np.roll(pts, -1, axis=0) - pts
    en = np.roll(e, -1, axis=0)
    cross = e[:, 0] * en[:, 1] - e[:, 1] * en[:, 0]
    band = rel_tol * float(np.max(np.abs(pts))) ** 2
    return bool(np.all(cross >= -band) or np.all(cross <= band))


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def _cap(rng, c_frac=(0.0, 0.2)) -> dict:
    pc = float(10.0 ** rng.uniform(0.0, 2.0))
    return {
        "meridian": "bp",
        "M": float(rng.uniform(0.5, 1.2)),
        "pc": pc,
        "c": float(rng.uniform(*c_frac)) * pc,
        "m": float(rng.uniform(1.5, 4.0)),
        "alpha": float(rng.uniform(0.2, 1.8)),
    }


def _linear(rng) -> dict:
    return {"meridian": "linear", "Gamma": float(rng.uniform(0.3, 1.5)), "c": float(rng.uniform(0.0, 1.0))}


def _shape(rng, kind: str) -> dict:
    if kind == "bp":
        # beta in [0, 2] is inside the convex interval for every gamma.
        return {"beta": float(rng.uniform(0.0, 2.0)), "gamma": float(rng.uniform(0.0, 0.95))}
    if kind == "power-law":
        n = float(rng.uniform(1.5, 3.5))
        return {"deviatoric": {"kind": kind, "beta": float(rng.uniform(0.1, 0.8)) * n / (9.0 - 2.0 * n), "n": n}}
    if kind == "willam-warnke":
        return {"deviatoric": {"kind": kind, "e": float(rng.uniform(0.55, 1.0))}}
    return {"deviatoric": {"kind": kind, "k": float(rng.uniform(0.8, 1.0))}}


SHAPES = ("bp", "power-law", "willam-warnke", "gudehus-argyris")


def pointwise_pool(rng) -> list[dict]:
    """Eight criteria: all four shapes, both meridians, and A > 0."""
    layout = [
        ("bp", "cap", False), ("power-law", "cap", False), ("willam-warnke", "cap", False),
        ("gudehus-argyris", "cap", False), ("bp", "linear", False), ("willam-warnke", "linear", False),
        ("bp", "cap", True), ("gudehus-argyris", "linear", True),
    ]
    pool = []
    for kind, mer, quad in layout:
        spec = _cap(rng) if mer == "cap" else _linear(rng)
        spec.update(_shape(rng, kind))
        scale = spec["pc"] if mer == "cap" else 1.0 + spec["c"]
        spec["A"] = float(rng.uniform(0.05, 0.5)) / scale if quad else 0.0
        spec["B"] = 1.0
        pool.append(spec)
    return pool


def section_spec(rng, index: int) -> dict:
    """A certified cap criterion; shapes cycle, the slice avoids c = 0."""
    spec = _cap(rng, c_frac=(0.05, 0.3))
    spec.update(_shape(rng, SHAPES[index % len(SHAPES)]))
    spec["A"] = float(rng.uniform(0.05, 0.5)) / spec["pc"] if index % 2 else 0.0
    spec["B"] = 1.0
    return spec


# ---------------------------------------------------------------------------
# Pointwise states
# ---------------------------------------------------------------------------

# One block of 20 states in fixed shares, shuffled per block: 70 % interior,
# 10 % on the surface, 5 % each on theta = 0, theta = pi/3, the hydrostatic
# axis, and outside the cap (beyond the apex for a linear meridian).
CATEGORY_BLOCK = ["interior"] * 14 + ["surface"] * 2 + ["theta0", "theta60", "hydrostatic", "outside"]


def pointwise_batch(rng, pool: list[dict], blocks: int) -> list[dict]:
    states = []
    for _ in range(blocks):
        cats = list(CATEGORY_BLOCK)
        rng.shuffle(cats)
        for cat in cats:
            ci = int(rng.integers(len(pool)))
            states.append(_state(rng, ci, pool[ci], cat))
    return states


def _state(rng, ci: int, spec: dict, cat: str) -> dict:
    linear = spec.get("meridian") == "linear"
    if linear:
        span = 1.0 + spec["c"]
        p = -spec["c"] + span * float(rng.uniform(0.05, 2.0))
    else:
        p = float(rng.uniform(0.05, 0.95)) * (spec["pc"] + spec["c"]) - spec["c"]
    theta = {"theta0": 0.0, "theta60": PI3}.get(cat, float(rng.uniform(0.0, PI3)))
    if cat == "hydrostatic":
        q, theta = 0.0, 0.0
    elif cat == "outside":
        if linear:
            p = -spec["c"] - (1.0 + spec["c"]) * float(rng.uniform(0.1, 1.0))
            q = (1.0 + spec["c"]) * float(rng.uniform(0.1, 1.0))
        else:
            p = spec["pc"] * float(rng.uniform(1.05, 1.5))
            q = spec["pc"] * float(rng.uniform(0.1, 0.5))
    elif cat == "surface":
        q = surface_q(p, theta, spec)
    else:
        q = float(rng.uniform(0.1, 0.95)) * surface_q(p, theta, spec)
    return {"crit": ci, "cat": cat, "p": p, "q": q, "theta": theta, "stress": principal(p, q, theta)}


# ---------------------------------------------------------------------------
# Calibration datasets
# ---------------------------------------------------------------------------


def meridian_points(row: dict, n: int = 40, theta: float = PI3) -> list[tuple[float, float, float]]:
    """n noiseless (p, q, theta) points on the row's meridian at theta."""
    spec = dict(row, meridian="bp")
    pts = []
    for phi in np.linspace(0.03, 0.97, n):
        p = float(phi) * (row["pc"] + row["c"]) - row["c"]
        pts.append((p, surface_q(p, theta, spec), theta))
    return pts


def calibration_cases(rng) -> list[dict]:
    """All 13 rows in both residual modes, in a seeded order with seeded starts."""
    cases = [
        {"label": label, "row": row, "mode": mode, "fit_seed": 0}
        for label, row in MERIDIAN_ROWS
        for mode in RESIDUAL_MODES
    ]
    order = rng.permutation(len(cases))
    seeds = rng.integers(0, 2**31 - 1, size=len(cases))
    out = []
    for i, j in enumerate(order):
        case = dict(cases[int(j)], fit_seed=int(seeds[i]))
        case["points"] = meridian_points(case["row"])
        out.append(case)
    return out


# ---------------------------------------------------------------------------
# CLI inputs
# ---------------------------------------------------------------------------


def cli_inputs(rng) -> dict:
    """Parameter file, stress, dataset and fit problem for the CLI commands."""
    spec = section_spec(rng, int(rng.integers(len(SHAPES))))
    p = float(rng.uniform(0.1, 0.9)) * (spec["pc"] + spec["c"]) - spec["c"]
    theta = float(rng.uniform(0.05, PI3 - 0.05))
    q = float(rng.uniform(0.1, 0.95)) * surface_q(p, theta, spec)
    # One fixed row, so the fit command costs about the same on every seed;
    # the seed moves its starts.  Lead powder is the row whose fits land in
    # a wrong minimum (the calibration workload counts those).
    label, row = MERIDIAN_ROWS[4]
    problem = {
        "criterion": dict(row),
        "free": list(FIT_FREE),
        "residual_mode": "meridian_distance",
        "seed": int(rng.integers(0, 2**31 - 1)),
    }
    csv = "p,q,theta\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in meridian_points(row))
    return {"params": spec, "stress": principal(p, q, theta), "label": label, "problem": problem, "data_csv": csv}


# ---------------------------------------------------------------------------
# Speed probe
# ---------------------------------------------------------------------------

# A fixed piece of scalar work in the style of the library's per-call path:
# the reference model on 256 fixed states.  It is benchmark code, so a
# change to the library cannot change its cost; timed through a run, it
# measures how fast this machine runs at the time.
_PROBE_SPEC = {"meridian": "bp", "M": 0.9, "pc": 1.3, "c": 0.3, "m": 2.2, "alpha": 0.9,
               "beta": 0.5, "gamma": 0.7, "A": 0.0, "B": 1.0}
_PROBE_STATES = [
    principal(0.1 + 0.9 * k / 256, 0.3 + 0.2 * (k % 7) / 7, PI3 * (k % 11) / 11) for k in range(256)
]


def probe_work() -> float:
    acc = 0.0
    for sig in _PROBE_STATES:
        p, q, theta = invariants_of(np.asarray(sig, dtype=float))
        acc += yield_F(p, q, theta, _PROBE_SPEC)
    return acc


def fingerprint(obj) -> str:
    """SHA-256 of the canonical JSON form (floats by repr) of generated inputs."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
