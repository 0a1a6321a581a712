"""Benchmark of the yieldcrit library and CLI in the checkout's src/.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload is a closed loop with one client: the next call starts when
the previous one has returned.  A workload names the families of operations
that run for ``--seconds`` each (``library``: pointwise, sections and
calibration in this process; ``cli``: fresh CLI processes); every other
family runs a fixed quota of units spread through that time, so that every
metric is measured on every workload.  Inputs come only from ``--seed``.
Every output is checked, and ``attempted`` and ``failed`` count distinct
operations (see families.py).  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics and the tracing overhead
with ``--trace 1``.  Exit code 2, with no result, when src/yieldcrit is not
there or is not the package that gets imported.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from families import FAMILIES, Context
from spans import Tracer, has_ancestor, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
ORDER = ("pointwise", "sections", "calibration", "cli")
# Each workload names the families that run for --seconds each; the others
# run their fixed quota.
WORKLOADS = {"library": ("pointwise", "sections", "calibration"), "cli": ("cli",)}
# The speed of this shared machine changes by up to 1.8x from one minute to
# the next, and all timings of a run move with it.  They are therefore
# reported at a fixed machine speed: the in-process times of a family
# multiplied by PROBE_NOMINAL_NS over the mean time of the speed probe next
# to that family's units in the same run (for the workload's own families,
# which run interleaved, next to any of their units), and the times of
# fresh processes (set-up and CLI) by PROCESS_PROBE_NOMINAL_S over the mean
# time of the process probe; rates are divided by the factor.  The factors
# and unscaled values are printed.
PROBE_NOMINAL_NS = 1_500_000
# Key of the speed probes taken next to the workload's own families.
WORKLOAD_PROBES = "workload"
PROCESS_PROBE_NOMINAL_S = 0.25
# Fresh processes timed for setup_s in a run; the median is reported.
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 60


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_library():
    """Import yieldcrit from the checkout's src/ and nowhere else."""
    package = os.path.join(SRC, "yieldcrit")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        fail(f"no package at {package}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import yieldcrit

    if os.path.realpath(os.path.dirname(yieldcrit.__file__)) != os.path.realpath(package):
        fail(f"yieldcrit imported from {yieldcrit.__file__}, not from {package}")
    return yieldcrit


def setup_inputs(yc, seed: int, workdir: str) -> dict:
    return {
        name: fam.setup(yc, seed, workdir) if name == "cli" else fam.setup(yc, seed)
        for name, fam in FAMILIES.items()
    }


def time_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports yieldcrit and builds the inputs."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
    )
    return time.perf_counter() - t0


def run_units(fams, ctx, inputs, seconds: float, between=None) -> dict[str, float]:
    """Units of each family in ``fams`` until each has used ``seconds`` of
    its own time and run at least its quota, in whole cycles.

    The family with the least time so far goes next.  ``between(progress)``
    runs after each unit with the share of the time used so far.  Returns
    the mean timed cost per unit by family.
    """
    spent = {name: 0.0 for name in fams}
    done = {name: 0 for name in fams}
    active = list(fams)
    while active:
        name = min(active, key=spent.get)
        fam = FAMILIES[name]
        t0 = time.perf_counter()
        fam.run_unit(ctx, inputs[name])
        spent[name] += time.perf_counter() - t0
        done[name] += 1
        ctx.probe(WORKLOAD_PROBES)
        if spent[name] >= seconds and done[name] >= fam.quota and done[name] % fam.cycle == 0:
            active.remove(name)
        if between is not None:
            between(sum(min(v, seconds) for v in spent.values()) / (seconds * len(fams)))
    return {name: FAMILIES[name].unit_cost(ctx.samples) for name in fams}


def interleaved(ctx, inputs, args) -> list[float]:
    """The workload's families for ``--seconds`` each; every other family's
    quota and the set-up timings spread evenly through that time, so that
    all metrics see the same share of the machine's changes in speed.
    The speed probe runs right before and after each quota unit, so that
    the few units of a family get probes from the same moments."""
    primaries = WORKLOADS[args.workload]
    others = [(name, (k + 0.5) / FAMILIES[name].quota) for name in ORDER if name not in primaries
              for k in range(FAMILIES[name].quota)]
    others += [("setup", (k + 0.5) / SETUP_RUNS) for k in range(SETUP_RUNS)]
    others.sort(key=lambda item: item[1])
    queue = [name for name, _ in others]
    setup_times: list[float] = []

    def between(progress: float) -> None:
        while queue and len(queue) > (1.0 - progress) * len(others):
            name = queue.pop(0)
            if name == "setup":
                setup_times.append(time_setup(args.workload, args.seed))
                ctx.probe_process()
            else:
                ctx.probe(name, force=True)
                FAMILIES[name].run_unit(ctx, inputs[name])
                ctx.probe(name, force=True)

    run_units(primaries, ctx, inputs, args.seconds, between)
    between(1.0)
    return setup_times


def layer_metrics(ctx, overhead_pct: float) -> dict:
    tr = ctx.tracer
    own = self_times(tr.start, tr.end, tr.parent)
    agg: dict[str, list[int]] = {}
    for i, self_ns in enumerate(own):
        a = agg.setdefault(tr.names[tr.name_id[i]], [0, 0, 0])
        a[0] += 1
        a[1] += self_ns
        a[2] += tr.end[i] - tr.start[i]

    def calls(name):
        return agg.get(name, [0, 0, 0])[0]

    def mean(name, column, unit_ns):
        c = calls(name)
        return agg[name][column] / c / unit_ns if c else 0.0

    def under(name, ancestor):
        target = tr.ids.get(ancestor, -2)
        nid = tr.ids.get(name, -2)
        return sum(
            1 for i in range(len(own))
            if tr.name_id[i] == nid and has_ancestor(i, tr.parent, tr.name_id, target)
        )

    curves = calls("sections.sample_biaxial")
    fits = calls("calibration.fit")
    s = ctx.samples
    m = {}
    for layer in ("invariants.invariants", "criterion.yield_value", "criterion.surface_q", "criterion.gradient"):
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.self_us"] = (mean(layer, 1, 1e3), "us")
    m["sections.biaxial.yield_value_per_curve"] = (
        under("criterion.yield_value", "sections.sample_biaxial") / max(curves, 1), "count")
    m["sections.sample_biaxial.self_ms"] = (mean("sections.sample_biaxial", 1, 1e6), "ms")
    m["sections.biaxial_center_ms"] = (mean("sections.biaxial_center", 2, 1e6), "ms")
    m["sections.sample_meridian.self_ms"] = (mean("sections.sample_meridian", 1, 1e6), "ms")
    m["sections.sample_deviatoric.self_ms"] = (mean("sections.sample_deviatoric", 1, 1e6), "ms")
    m["sections.curve_to_csv_ms"] = (mean("sections.curve_to_csv", 2, 1e6), "ms")
    m["calibration.residual_vector.calls_per_fit"] = (
        under("calibration.residual_vector", "calibration.fit") / max(fits, 1), "count")
    m["calibration.residual_vector.self_us"] = (mean("calibration.residual_vector", 1, 1e3), "us")
    m["calibration.least_squares.self_ms_per_fit"] = (
        agg.get("calibration.least_squares", [0, 0])[1] / 1e6 / max(fits, 1), "ms")
    m["calibration.fit.self_ms"] = (mean("calibration.fit", 1, 1e6), "ms")
    m["calibration.starts_agreeing_frac"] = (sum(s["starts_agreeing"]) / max(sum(s["starts"]), 1), "ratio")
    m["calibration.fallback_runs"] = (calls("calibration.minimize"), "count")
    m["convexity.certify.calls"] = (calls("convexity.certify"), "count")
    m["convexity.certify.self_ms"] = (mean("convexity.certify", 1, 1e6), "ms")
    m["cli.import_ms"] = (statistics.median(s["import_ms"]), "ms")
    m["cli.scipy_import_ms"] = (statistics.median(s["scipy_import_ms"]), "ms")
    m["cli.main_ms"] = (mean("cli.main", 2, 1e6), "ms")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    yc = import_library()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}_{args.seed}_", dir=OUT)
    try:
        if args.setup_only:
            setup_inputs(yc, args.seed, workdir)
            return 0
        return benchmark(yc, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def benchmark(yc, args, workdir: str) -> int:
    import numpy
    import scipy

    print(
        f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__}; "
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}; "
        "closed loop, 1 client"
    )
    compileall.compile_dir(SRC, quiet=1)
    inputs = setup_inputs(yc, args.seed, workdir)
    ctx = Context(yc, ROOT, workdir, Tracer() if args.trace else None)

    if args.trace:
        # Half the time untraced, then everything traced: the difference on
        # the workload's own families is the tracing overhead.
        primaries = WORKLOADS[args.workload]
        untraced = run_units(primaries, ctx, inputs, args.seconds / 2)
        ctx.samples = {}
        ctx.trace_on = True
        traced = run_units(primaries, ctx, inputs, args.seconds / 2)
        overhead_pct = 100.0 * statistics.mean(traced[n] / untraced[n] - 1.0 for n in primaries)
        for name in ORDER:
            if name not in primaries:
                for _ in range(FAMILIES[name].quota):
                    FAMILIES[name].run_unit(ctx, inputs[name])
        metrics = layer_metrics(ctx, overhead_pct)
        ctx.tracer.write(os.path.join(OUT, f"spans_{args.workload}_{args.seed}.csv.gz"))
    else:
        setup_times = interleaved(ctx, inputs, args)
        process_s = statistics.mean(ctx.process_probe_s)
        process_speed = PROCESS_PROBE_NOMINAL_S / process_s
        print(f"# process probe: mean {process_s * 1e3:.1f} ms over {len(ctx.process_probe_s)}, "
              f"nominal {PROCESS_PROBE_NOMINAL_S * 1e3:.0f} ms: process times scaled by {process_speed:.4f}")
        timed = {"setup_s": (statistics.median(setup_times), "s", process_speed)}
        for name in ORDER:
            speed = process_speed
            if name != "cli":
                probes = ctx.probe_ns[WORKLOAD_PROBES if name in WORKLOADS[args.workload] else name]
                speed = PROBE_NOMINAL_NS / statistics.mean(probes)
                print(f"# speed probe next to {name}: mean {statistics.mean(probes) / 1e3:.1f} us over "
                      f"{len(probes)}, nominal {PROBE_NOMINAL_NS / 1e3:.0f} us: times scaled by {speed:.4f}")
            for metric, (value, unit) in FAMILIES[name].metrics(ctx.samples).items():
                timed[metric] = (value, unit, speed)
        metrics = {}
        for metric, (value, unit, factor) in timed.items():
            print(f"# as timed: {metric} = {value:.6g} {unit}")
            metrics[metric] = (value / factor if unit == "1/s" else value * factor, unit)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    for note in ctx.notes:
        print(f"# failed: {note}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    attempted, failed = ctx.tally()
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name in ORDER:
        fam_attempted, fam_failed = ctx.tally(name)
        print(f"failed_frac.{name} = {fam_failed / max(fam_attempted, 1):.6g} ({fam_failed} of {fam_attempted})")
    print(json.dumps({
        "correct": ctx.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
