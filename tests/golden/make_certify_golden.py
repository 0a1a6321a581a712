"""Write the golden record of convexity certification: ``certify.json``.

It records ``certify(crit).to_dict()`` for

  * every shape case below (the four deviatoric shapes, convex and not)
    on both meridians, with A = 0 and, on the cap meridian, A > 0;
  * the edge cases of the convexity conditions: the native beta at the
    upper end of its interval, just past it and just below its lower end
    at two gammas (the second is the gamma of a parameter file that passes
    ``criterion_from_dict`` exactly at the upper end); gamma = 0 with beta
    at ``beta_bound(0)``, where g changes sign at the sector's end; a
    power law far past its beta_max; Gudehus-Argyris at k = 0.7775 and
    k = 7/9; Willam-Warnke next to e = 1/2; a cap meridian next to m = 1
    and alpha = 2.

Each case stores its criterion in the parameter-file form, which
``criterion_from_dict(..., unchecked=True)`` rebuilds exactly.

Run by hand, from the repository root, against the tree whose reports are
to be recorded:

    PYTHONPATH=src python tests/golden/make_certify_golden.py

``tests/test_golden.py`` compares the library with the file.  A change that
alters a report on purpose regenerates the file and names each changed
entry in CHANGES.md.
"""

from __future__ import annotations

import json
import pathlib

import yieldcrit as yc

OUT = pathlib.Path(__file__).resolve().parent / "certify.json"

CAP = yc.CapMeridian(M=0.75, pc=1.0, c=0.1, m=2.0, alpha=1.0)
LINEAR = yc.LinearMeridian(Gamma=0.8, c=0.2)
GAMMA_AT_EDGE = 0.6153851108658688

SHAPES = [
    ("circle", yc.CosineLode(beta=1.0, gamma=0.0)),
    ("native", yc.CosineLode(beta=0.6, gamma=0.8)),
    ("native-sharp", yc.CosineLode(beta=0.0, gamma=0.9999)),
    ("native-above", yc.CosineLode(beta=4.5, gamma=0.5)),
    ("native-below", yc.CosineLode(beta=-0.5, gamma=0.5)),
    ("power-law", yc.PowerLaw(beta=0.8, n=3.0)),
    ("power-law-vertex", yc.PowerLaw(beta=0.5, n=6.0)),
    ("power-law-above", yc.PowerLaw(beta=1.05, n=3.0)),
    ("willam-warnke", yc.WillamWarnke(e=0.7)),
    ("willam-warnke-circle", yc.WillamWarnke(e=1.0)),
    ("gudehus-argyris", yc.GudehusArgyris(k=0.9)),
    ("gudehus-argyris-circle", yc.GudehusArgyris(k=1.0)),
]


def edge_cases():
    """(label, criterion) for each edge case of the convexity conditions."""
    for gamma in (0.5, GAMMA_AT_EDGE):
        hi = yc.beta_bound(gamma)
        for label, beta in (("hi", hi), ("hi+1e-9", hi + 1e-9), ("lo-1e-9", 2.0 - hi - 1e-9)):
            yield f"beta {label} at gamma={gamma!r}", yc.Criterion(CAP, yc.CosineLode(beta, gamma))
    yield "beta = beta_bound(0) at gamma=0", yc.Criterion(CAP, yc.CosineLode(yc.beta_bound(0.0), 0.0))
    yield "power law past beta_max", yc.Criterion(CAP, yc.PowerLaw(beta=1.9134, n=0.1221))
    for k in (0.7775, 7.0 / 9.0):
        yield f"gudehus-argyris k={k!r}", yc.Criterion(CAP, yc.GudehusArgyris(k=k))
    yield "willam-warnke e=0.5000001", yc.Criterion(CAP, yc.WillamWarnke(e=0.5000001))
    cap = yc.CapMeridian(M=0.75, pc=1.0, c=0.1, m=1.0001, alpha=1.9999)
    yield "cap m=1.0001 alpha=1.9999", yc.Criterion(cap, yc.CosineLode(1.0, 0.0))


def cases():
    for name, shape in SHAPES:
        for mer_name, meridian in (("cap", CAP), ("linear", LINEAR)):
            yield f"{name} on {mer_name}", yc.Criterion(meridian, shape)
        yield f"{name} on cap, A=0.3", yc.Criterion(CAP, shape, A=0.3)
    yield from edge_cases()


def main() -> None:
    records = [
        {"label": label, "criterion": crit.to_dict(), "report": yc.certify(crit).to_dict()}
        for label, crit in cases()
    ]
    text = '{"cases": [\n' + ",\n".join(json.dumps(r, allow_nan=False) for r in records) + "\n]}\n"
    OUT.write_text(text, encoding="utf-8")
    print(f"wrote {len(records)} reports to {OUT}")


if __name__ == "__main__":
    main()
