"""Write the golden record of the fitter: ``fits.json``.

It records what ``fit`` returns for

  * each of the 13 paper rows of ``MERIDIAN_ROWS`` in both residual modes
    and with seeds 0 and 1, the problem and dataset built as
    ``tests/test_trf.py``'s ``moved_problem`` and ``meridian_dataset``
    build them (free M, m and alpha: the cap meridian's partials);
  * the seven-free fit of
    ``tests/test_calibration.py::test_seven_free_fit_keeps_evaluation_budget``
    (every native parameter free: the shape's partials too).

Each case stores its template criterion, free names, residual mode, seed
and dataset name, so the test rebuilds the problem from the file alone; each
dataset is stored once, as its (p, q, theta) rows.  The result stored is
the winning values, rms, ``n_agree``, ``iterations`` and every ``FitStart``.

Run by hand, from the repository root, against the tree whose results are
to be recorded:

    PYTHONPATH=src python tests/golden/make_fits_golden.py

``tests/test_golden.py`` compares the library with the file.  A change that
alters a fit on purpose regenerates the file and names each changed case in
CHANGES.md.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import yieldcrit as yc  # noqa: E402
from test_acceptance import MERIDIAN_ROWS  # noqa: E402
from test_trf import meridian_dataset, moved_problem  # noqa: E402

OUT = HERE / "fits.json"
PI3 = math.pi / 3.0


def seven_free_case():
    """The problem and dataset of the seven-free evaluation-budget test."""
    truth = yc.YieldParams(M=0.75, pc=1.0, c=0.2, m=3.0, alpha=1.2, beta=0.0, gamma=0.5)
    crit = truth.criterion()
    rows = [
        (p, yc.surface_q(p, th, crit), th)
        for th in np.linspace(0.0, PI3, 6)
        for p in np.linspace(0.05, 0.95, 10) * (truth.pc + truth.c) - truth.c
    ]
    ds = yc.FitDataset(points=np.array(rows), weights=np.ones(len(rows)))
    template = yc.YieldParams(M=0.75, pc=1.0, c=0.2, m=3.0, alpha=1.2, beta=0.5, gamma=0.2).criterion()
    free = ("M", "pc", "c", "m", "alpha", "gamma", "beta")
    return yc.FitProblem(template=template, free=free), ds


def record(label, problem, seed, n_starts) -> dict:
    return {
        "dataset": label,
        "template": problem.template.to_dict(),
        "free": list(problem.free),
        "mode": problem.residual_mode,
        "seed": seed,
        "n_starts": n_starts,
    }


def result_dict(result) -> dict:
    return {
        "values": [v for _, v in result.values],
        "rms": result.rms,
        "n_agree": result.n_agree,
        "iterations": result.iterations,
        "starts": [
            {
                "start": [v for _, v in s.start],
                "values": [v for _, v in s.values],
                "rms": s.rms if math.isfinite(s.rms) else repr(s.rms),
                "evaluations": s.evaluations,
                "stop": s.stop,
            }
            for s in result.starts
        ],
    }


def main() -> None:
    datasets, cases = {}, []
    jobs = []
    for label, row in MERIDIAN_ROWS:
        datasets[label] = meridian_dataset(row)
        for mode in ("meridian_distance", "function_value"):
            for seed in (0, 1):
                jobs.append((label, moved_problem(row, mode), seed, 16))
    problem, datasets["seven-free"] = seven_free_case()
    jobs.append(("seven-free", problem, 3, 16))
    for label, problem, seed, n_starts in jobs:
        result = yc.fit(problem, datasets[label], seed=seed, n_starts=n_starts)
        cases.append({**record(label, problem, seed, n_starts), **result_dict(result)})
    # one dataset and one case a line
    lines = [f" {json.dumps(label)}: {json.dumps(ds.points.tolist())}" for label, ds in datasets.items()]
    text = '{"datasets": {\n' + ",\n".join(lines) + '\n},\n"cases": [\n'
    text += ",\n".join(json.dumps(case, allow_nan=False) for case in cases) + "\n]}\n"
    OUT.write_text(text, encoding="utf-8")
    print(f"wrote {len(cases)} fits to {OUT}")


if __name__ == "__main__":
    main()
