"""Write the golden record of the per-state kernel: ``kernel.json``.

For a fixed set of criteria (all four deviatoric shapes, both meridians,
A = 0 and A > 0) and of stress states (interior, on the surface, on the
theta = 0 and theta = pi/3 meridians, on the hydrostatic axis, outside the
cap or beyond a linear meridian's apex, and within DELTA_PHI of a cap end)
it records what ``invariants``, ``yield_value``, ``surface_q`` and
``gradient`` return, or the message of the DegenerateState that
``gradient`` raises.

Run by hand, from the repository root, against the tree whose results are
to be recorded:

    PYTHONPATH=src python tests/golden/make_kernel_golden.py

``tests/test_golden.py`` compares the library with the file.  A change that
alters a result on purpose regenerates the file and names each changed
entry in CHANGES.md.
"""

from __future__ import annotations

import json
import math
import pathlib

import numpy as np

import yieldcrit as yc
from yieldcrit.criterion import DELTA_PHI

OUT = pathlib.Path(__file__).resolve().parent / "kernel.json"
PI3 = math.pi / 3.0

CRITERIA = [
    {"meridian": "bp", "M": 0.9, "pc": 12.5, "c": 1.3, "m": 2.2, "alpha": 0.7, "beta": 0.8, "gamma": 0.9},
    {"meridian": "bp", "M": 1.1, "pc": 40.0, "c": 0.0, "m": 3.5, "alpha": 1.6,
     "deviatoric": {"kind": "power-law", "beta": 0.35, "n": 2.5}},
    {"meridian": "bp", "M": 0.6, "pc": 3.0, "c": 0.45, "m": 1.7, "alpha": 0.25,
     "deviatoric": {"kind": "willam-warnke", "e": 0.62}},
    {"meridian": "bp", "M": 0.75, "pc": 80.0, "c": 9.0, "m": 2.9, "alpha": 1.1,
     "deviatoric": {"kind": "gudehus-argyris", "k": 0.83}},
    {"meridian": "linear", "Gamma": 0.8, "c": 0.4, "beta": 1.3, "gamma": 0.5},
    {"meridian": "linear", "Gamma": 1.3, "c": 0.0, "deviatoric": {"kind": "willam-warnke", "e": 0.9}},
    {"meridian": "bp", "M": 1.0, "pc": 25.0, "c": 2.0, "m": 2.0, "alpha": 1.0, "beta": 0.3,
     "gamma": 0.6, "A": 0.012},
    {"meridian": "linear", "Gamma": 0.5, "c": 0.9, "deviatoric": {"kind": "gudehus-argyris", "k": 0.95},
     "A": 0.2},
]


def _states(rng, crit) -> list[tuple[str, list[float]]]:
    """(category, principal stresses) for one criterion."""
    mer = crit.meridian
    cap = isinstance(mer, yc.CapMeridian)
    span = mer.pc + mer.c if cap else 1.0 + mer.c

    def pressure(frac):
        return -mer.c + frac * span

    def at(p, q, theta):
        return yc.principal_from_invariants(p, q, theta).tolist()

    def radius(p, theta):
        return yc.surface_q(p, theta, crit)

    out = []
    for _ in range(5):
        p, theta = pressure(rng.uniform(0.05, 0.95)), rng.uniform(0.0, PI3)
        out.append(("interior", at(p, rng.uniform(0.1, 0.95) * radius(p, theta), theta)))
    for _ in range(2):
        p, theta = pressure(rng.uniform(0.05, 0.95)), rng.uniform(0.0, PI3)
        out.append(("surface", at(p, radius(p, theta), theta)))
    for name, theta in (("theta0", 0.0), ("theta60", PI3)):
        p = pressure(rng.uniform(0.05, 0.95))
        out.append((name, at(p, rng.uniform(0.1, 0.95) * radius(p, theta), theta)))
    out.append(("hydrostatic", at(pressure(rng.uniform(0.05, 0.95)), 0.0, 0.0)))
    if cap:
        out.append(("outside", at(mer.pc * rng.uniform(1.05, 1.5), mer.pc * rng.uniform(0.1, 0.5), 0.4)))
        # Phi within DELTA_PHI of 0 and of 1, and just outside that band
        for name, phi in (
            ("tension-end", 0.4 * DELTA_PHI),
            ("compression-end", 1.0 - 0.4 * DELTA_PHI),
            ("tension-band-edge", 3.0 * DELTA_PHI),
        ):
            p = pressure(phi)
            out.append((name, at(p, 1e-3 * span, rng.uniform(0.0, PI3))))
    else:
        out.append(("outside", at(-mer.c - span * rng.uniform(0.1, 1.0), span * rng.uniform(0.1, 1.0), 0.7)))
        out.append(("far", at(pressure(rng.uniform(5.0, 50.0)), span * rng.uniform(0.1, 2.0), 0.2)))
    return out


def _number(x: float):
    """A float, or its name where strict JSON has none."""
    return x if math.isfinite(x) else repr(x)


def record(crit, stress) -> dict:
    inv = yc.invariants(stress)
    qs = yc.surface_q(inv.p, inv.theta, crit)
    entry = {
        "invariants": [inv.p, inv.q, inv.theta, inv.hydrostatic],
        "yield_value": _number(yc.yield_value(stress, crit)),
        "surface_q": qs,
    }
    try:
        dec = yc.gradient(stress, crit)
    except yc.DegenerateState as exc:
        entry["gradient"] = {"DegenerateState": str(exc)}
    else:
        entry["gradient"] = {
            "a": dec.a,
            "b": dec.b,
            "c": dec.c,
            "tensor": dec.tensor.tolist(),
            "unit_normal": dec.unit_normal.tolist(),
        }
    return entry


def main() -> None:
    rng = np.random.default_rng(20101)
    cases = []
    for spec in CRITERIA:
        crit = yc.criterion_from_dict(spec)
        for category, stress in _states(rng, crit):
            cases.append({"criterion": spec, "category": category, "stress": stress, **record(crit, stress)})
    OUT.write_text(json.dumps({"cases": cases}, indent=1, allow_nan=False) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {OUT}")


if __name__ == "__main__":
    main()
