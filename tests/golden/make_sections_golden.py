"""Write the golden record of the section samplers: ``sections.json``.

It records the curves of the benchmark's section workload: for seeds 1 to
5, the eight criteria that ``perfbench/reference.py`` draws for the
``sections`` stream (every deviatoric shape on a cap meridian, half of them
with A > 0), each with its Lode angle and its pressure, drawn in the order
the workload draws them.  Each criterion gives

  * the meridian section at its theta;
  * the deviatoric section at its pressure, plain and normalized;
  * the biaxial section, plain and normalized;

as the curve's labels and samples, or, for a refused curve, the error's
class and message.  Every sampler treats a point or a ray on its own, so
N_SAMPLES points run the same arithmetic as the workload's 200 and keep
the file small.  Each case stores its criterion in the parameter-file
form, so the test reads only this record, not the generator.

Run by hand, from the repository root, against the tree whose curves are
to be recorded:

    PYTHONPATH=src python tests/golden/make_sections_golden.py

``tests/test_golden.py`` compares the library with the file.  A change that
alters a curve on purpose regenerates the file and names each changed
entry in CHANGES.md.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "perfbench"))

import yieldcrit as yc  # noqa: E402
import reference as ref  # noqa: E402

OUT = HERE / "sections.json"
SEEDS = (1, 2, 3, 4, 5)
POOL = 8
N_SAMPLES = 25


def draws(seed: int) -> list[dict]:
    """The section workload's criteria, thetas and pressures for one seed."""
    rng = ref.rng_for(seed, "sections")
    specs = [ref.section_spec(rng, i) for i in range(POOL)]
    return [
        {
            "criterion": spec,
            "theta": float(rng.uniform(0.0, ref.PI3)),
            "at_p": float(rng.uniform(0.2, 0.8)) * (spec["pc"] + spec["c"]) - spec["c"],
        }
        for spec in specs
    ]


def _number(x: float):
    """A finite float as itself, a non-finite one by name."""
    return x if math.isfinite(x) else repr(x)


def curve(sample, *args, **kwargs) -> dict:
    """A curve's labels and samples, or the class and message of its refusal."""
    try:
        c = sample(*args, **kwargs)
    except yc.YieldCritError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    samples = [[_number(float(x)), _number(float(y))] for x, y in c.samples]
    return {"xlabel": c.xlabel, "ylabel": c.ylabel, "samples": samples}


def curves(case: dict) -> dict:
    """Every recorded curve of one case, by name."""
    crit = yc.criterion_from_dict(case["criterion"])
    return {
        "meridian": curve(yc.sample_meridian, crit, case["theta"], N_SAMPLES),
        "deviatoric": curve(yc.sample_deviatoric, crit, case["at_p"], N_SAMPLES),
        "deviatoric normalize": curve(yc.sample_deviatoric, crit, case["at_p"], N_SAMPLES, normalize=True),
        "biaxial": curve(yc.sample_biaxial, crit, N_SAMPLES),
        "biaxial normalize": curve(yc.sample_biaxial, crit, N_SAMPLES, normalize=True),
    }


def main() -> None:
    records = []
    for seed in SEEDS:
        for index, case in enumerate(draws(seed)):
            records.append({"seed": seed, "index": index, **case, "curves": curves(case)})
    body = ",\n".join(json.dumps(r, allow_nan=False) for r in records)
    OUT.write_text(f'{{"n": {N_SAMPLES}, "cases": [\n{body}\n]}}\n', encoding="utf-8")
    print(f"wrote {len(records)} cases to {OUT}")


if __name__ == "__main__":
    main()
