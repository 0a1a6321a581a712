"""The four families of user operations the benchmark times and checks.

Each family has a ``setup`` that builds its inputs from the seed and a
``run_unit`` that performs one unit of work, timed call by call, and then
checks every output against the reference model in ``reference.py``:

* pointwise:   100 principal-stress states through invariants, yield_value,
               surface_q and gradient, in REPEAT passes;
* sections:    one certified criterion through certify, the three samplers
               at n = 200 and curve_to_csv;
* calibration: one fit, cycling through the 26 (row, residual mode) cases;
* cli:         one fresh ``python -m yieldcrit.cli`` process, cycling through
               the four subcommands.

``quota`` is the number of units a family runs on a workload that does not
name it.  A family's inputs are a fixed, seeded set that its quota covers,
and a run cycles through them for as long as it lasts.  On a workload that
names it, a family stops after a multiple of ``cycle`` units, so that each
fit case and each CLI command counts equally in its metrics.

An *operation* is one distinct input of a family (a state, a curve, a fit
case, a CLI command).  Every run of it is checked, and ``attempted`` and
``failed`` count operations, not runs, so they do not depend on how many
times the run's length let an operation repeat: the same seed gives the
same counts.  A check that fails on any run counts the operation as
failed.  Checks are of two
kinds: a *contract* check (the output disagrees with the reference, breaks
the library's documented contract, or is malformed) also clears
``correct``; a *goal* check (a fit that returns a valid local minimum but
not the true parameters) only counts as failed.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

import reference as ref
from spans import Tracer, parse_importtime

HERE = os.path.dirname(os.path.abspath(__file__))
N_SECTION = 200
# The speed of a shared machine switches between a fast and a slow state
# (up to 1.8x apart) that last from milliseconds to seconds.  A single call
# of a few ms or less runs in one of them, so a median over such calls
# jumps between the two.  These calls are therefore timed REPEAT times,
# spread out (one pass over a unit's states per repeat; the sampler
# repeats around the biaxial curve), and their mean counts.
REPEAT = 5
# The speed probe (reference.probe_work) runs between units, at most this
# often, and the process probe after every CLI and set-up process; see
# run.py for how their times scale the metrics.
PROBE_EVERY_S = 0.05
# Wall-clock limit for one CLI process; the slowest command takes about 2 s.
CLI_TIMEOUT_S = 120

# Module-level names that the layers call through, and the span each gets.
PATCHES = [
    ("criterion", "invariants", "invariants.invariants"),
    ("sections", "invariants", "invariants.invariants"),
    ("sections", "yield_value", "criterion.yield_value"),
    ("sections", "surface_q", "criterion.surface_q"),
    ("sections", "minimize_scalar", "sections.biaxial_center"),
    ("calibration", "residual_vector", "calibration.residual_vector"),
    ("calibration", "least_squares", "calibration.least_squares"),
    ("calibration", "minimize", "calibration.minimize"),
    ("calibration", "certify", "convexity.certify"),
]
CLI_PATCHES = [
    ("cli", "invariants", "invariants.invariants"),
    ("cli", "yield_value", "criterion.yield_value"),
    ("cli", "gradient", "criterion.gradient"),
    ("cli", "certify", "convexity.certify"),
    ("cli", "sample_biaxial", "sections.sample_biaxial"),
    ("cli", "curve_to_csv", "sections.curve_to_csv"),
    ("cli", "fit", "calibration.fit"),
]
# Public functions the benchmark calls directly, and their span names.
API = {
    "invariants": "invariants.invariants",
    "yield_value": "criterion.yield_value",
    "surface_q": "criterion.surface_q",
    "gradient": "criterion.gradient",
    "certify": "convexity.certify",
    "sample_meridian": "sections.sample_meridian",
    "sample_deviatoric": "sections.sample_deviatoric",
    "sample_biaxial": "sections.sample_biaxial",
    "curve_to_csv": "sections.curve_to_csv",
    "fit": "calibration.fit",
}


def patch_layers(tracer: Tracer, patches, on_start=None) -> None:
    """Wrap each listed module-level name; ``on_start`` sees optimizer results."""
    for mod, attr, name in patches:
        module = importlib.import_module(f"yieldcrit.{mod}")
        hook = None
        if on_start is not None and attr in ("least_squares", "minimize"):
            hook = (lambda kind: lambda res: on_start(kind, res))(attr)
        tracer.patch(module, attr, name, hook)


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _ms(ns_values) -> list[float]:
    return [v / 1e6 for v in ns_values]


class Context:
    """State of one benchmark run: the library, counters, samples, tracer."""

    def __init__(self, yc, root: str, workdir: str, tracer: Tracer | None):
        self.yc = yc
        self.root = root
        self.workdir = workdir
        self.tracer = tracer
        self.trace_on = False  # run.py turns tracing on for the traced part of a run
        self.correct = True
        self.outcomes: dict[tuple, bool] = {}  # (family, operation) -> passed on every run
        self.notes: list[str] = []
        self.samples: dict[str, list] = {}
        self.probe_ns: dict[str, list[int]] = {}  # units it ran next to -> times
        self.process_probe_s: list[float] = []
        self._last_probe = -math.inf
        self.start_rms: list[tuple[str, object]] = []
        self.plain = SimpleNamespace(**{name: getattr(yc, name) for name in API})
        self.wrapped = (
            SimpleNamespace(**{n: tracer.wrap(getattr(yc, n), span) for n, span in API.items()})
            if tracer
            else self.plain
        )

    @property
    def api(self):
        return self.wrapped if self.trace_on else self.plain

    @contextmanager
    def traced(self):
        """Layer spans are recorded inside this block when tracing is on."""
        if not self.trace_on:
            yield
            return
        patch_layers(self.tracer, PATCHES, lambda kind, res: self.start_rms.append((kind, res)))
        try:
            yield
        finally:
            self.tracer.unpatch()

    def record(self, family: str, op, ok: bool, what: str, contract: bool = True) -> None:
        """The outcome of one run of operation ``op`` of ``family``."""
        key = (family, op)
        self.outcomes[key] = self.outcomes.get(key, True) and ok
        if not ok:
            if contract:
                self.correct = False
            if len(self.notes) < 20:
                self.notes.append(what)

    def tally(self, family: str | None = None) -> tuple[int, int]:
        """(attempted, failed) operations, of one family or of all."""
        runs = [ok for (fam, _), ok in self.outcomes.items() if family in (None, fam)]
        return len(runs), runs.count(False)

    def add(self, key: str, value) -> None:
        self.samples.setdefault(key, []).append(value)

    def probe(self, key: str, force: bool = False) -> None:
        """Time the speed probe next to the units that ``key`` names;
        unless ``force``, at most once per PROBE_EVERY_S."""
        if not force and time.perf_counter() - self._last_probe < PROBE_EVERY_S:
            return
        t0 = time.perf_counter_ns()
        ref.probe_work()
        self.probe_ns.setdefault(key, []).append(time.perf_counter_ns() - t0)
        self._last_probe = time.perf_counter()

    def probe_process(self) -> None:
        """Time the process probe: a fresh interpreter that imports numpy."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=self.workdir, check=True,
                       timeout=CLI_TIMEOUT_S)
        self.process_probe_s.append(time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# pointwise
# ---------------------------------------------------------------------------


class Pointwise:
    name = "pointwise"
    quota = 20  # units run on a workload that does not name this family
    cycle = 1
    BLOCKS = 5  # 100 states per unit
    FD_EVERY = 25

    def setup(self, yc, seed: int):
        rng = ref.rng_for(seed, self.name)
        pool = ref.pointwise_pool(rng)
        crits = [yc.criterion_from_dict(spec) for spec in pool]
        batches = [ref.pointwise_batch(rng, pool, self.BLOCKS)]
        return {"rng": rng, "pool": pool, "crits": crits, "batches": batches, "next": 0}

    def run_unit(self, ctx: Context, inp) -> None:
        # The quota's batches, each drawn from the seed on first use.
        b = inp["next"] % self.quota
        inp["next"] += 1
        if b == len(inp["batches"]):
            inp["batches"].append(ref.pointwise_batch(inp["rng"], inp["pool"], self.BLOCKS))
        batch = inp["batches"][b]
        crits = inp["crits"]
        DegenerateState = ctx.yc.DegenerateState
        total = [0] * len(batch)
        with ctx.traced():
            api = ctx.api
            inv_f, yv_f, sq_f, gr_f = api.invariants, api.yield_value, api.surface_q, api.gradient
            clock = time.perf_counter_ns
            for _ in range(REPEAT):
                out = []
                for k, st in enumerate(batch):
                    crit, sig = crits[st["crit"]], st["stress"]
                    t0 = clock()
                    inv = inv_f(sig)
                    F = yv_f(sig, crit)
                    qs = sq_f(inv.p, inv.theta, crit)
                    try:
                        grad = gr_f(sig, crit)
                    except DegenerateState as exc:
                        grad = exc
                    t1 = clock()
                    total[k] += t1 - t0
                    out.append((inv, F, qs, grad))
        ctx.samples.setdefault("state_ns", []).extend(t / REPEAT for t in total)
        for k, (st, res) in enumerate(zip(batch, out)):
            problem = self.check(ctx, inp["pool"][st["crit"]], crits[st["crit"]], st, res, k % self.FD_EVERY == 0)
            ctx.record(self.name, (b, k), problem is None, f"pointwise {st['cat']} state: {problem}")

    def check(self, ctx, spec, crit, st, res, fd: bool):
        inv, F, qs, grad = res
        p, q, theta = st["p"], st["q"], st["theta"]
        size = abs(p) + q
        if abs(inv.p - p) > 1e-11 * size or abs(inv.q - q) > 1e-10 * size:
            return f"invariants ({inv.p}, {inv.q}) != ({p}, {q})"
        if st["cat"] == "hydrostatic":
            if not inv.hydrostatic:
                return "hydrostatic state not flagged"
        elif abs(inv.theta - theta) > 1e-6:
            return f"theta {inv.theta} != {theta}"
        s0 = ref.residual_scale(p, q, spec)
        F_ref = ref.yield_F(inv.p, inv.q, inv.theta, spec)
        if math.isinf(F_ref) or math.isinf(F):
            if not (F == F_ref == math.inf):
                return f"F = {F}, reference {F_ref}"
        elif abs(F - F_ref) > 1e-10 * s0:
            return f"F = {F}, reference {F_ref}"
        if st["cat"] == "surface" and abs(F) > 1e-10 * s0:
            return f"F = {F} at a surface state"
        qs_ref = ref.surface_q(inv.p, inv.theta, spec)
        if (qs is None) != (qs_ref is None) or (qs is not None and abs(qs - qs_ref) > 1e-10 * s0):
            return f"surface_q = {qs}, reference {qs_ref}"
        degenerate = st["cat"] == "hydrostatic" or (st["cat"] == "outside" and spec["meridian"] == "bp")
        if isinstance(grad, Exception) != degenerate:
            return f"gradient gave {grad!r} where a degenerate state was {'' if degenerate else 'not '}generated"
        if degenerate:
            return None
        if not np.all(np.isfinite(grad.tensor)):
            return "gradient is not finite"
        if fd and st["cat"] in ("interior", "surface") and 0.02 < theta < ref.PI3 - 0.02:
            return self.check_fd(ctx, crit, st["stress"], grad.tensor, size)
        return None

    @staticmethod
    def check_fd(ctx, crit, sig, tensor, size):
        h = 1e-6 * size
        yv = ctx.plain.yield_value
        fd = []
        for i in range(3):
            up, dn = list(sig), list(sig)
            up[i] += h
            dn[i] -= h
            fd.append((yv(up, crit) - yv(dn, crit)) / (2.0 * h))
        if np.max(np.abs(np.array(fd) - tensor)) > 1e-5 * max(1.0, float(np.max(np.abs(tensor)))):
            return f"gradient {list(tensor)} != central difference {fd}"
        return None

    @staticmethod
    def metrics(samples) -> dict:
        lat = np.array(samples["state_ns"], dtype=float)
        return {
            "eval_states_per_s": (len(lat) / (lat.sum() / 1e9), "1/s"),
            "eval_state_p50_us": (float(np.percentile(lat, 50)) / 1e3, "us"),
            "eval_state_p90_us": (float(np.percentile(lat, 90)) / 1e3, "us"),
        }

    @staticmethod
    def unit_cost(samples) -> float:
        return float(np.mean(samples["state_ns"]))


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


class Sections:
    name = "sections"
    quota = 8
    cycle = 1
    POOL = quota

    def setup(self, yc, seed: int):
        rng = ref.rng_for(seed, self.name)
        specs = [ref.section_spec(rng, i) for i in range(self.POOL)]
        cases = [
            {
                "spec": spec,
                "crit": yc.criterion_from_dict(spec),
                "theta": float(rng.uniform(0.0, ref.PI3)),
                "at_p": float(rng.uniform(0.2, 0.8)) * (spec["pc"] + spec["c"]) - spec["c"],
            }
            for spec in specs
        ]
        return {"cases": cases, "next": 0}

    def run_unit(self, ctx: Context, inp) -> None:
        c = inp["next"] % self.POOL
        case = inp["cases"][c]
        inp["next"] += 1
        crit = case["crit"]
        clock = time.perf_counter_ns
        with ctx.traced():
            api = ctx.api
            report = api.certify(crit)
            mer_ns, dev_ns = [], []
            # Two of the short repeats run before the biaxial curve (about
            # half a second) and three after it.
            for step in ("short", "short", "biaxial", "short", "short", "short"):
                t0 = clock()
                if step == "biaxial":
                    bia = api.sample_biaxial(crit, N_SECTION)
                    bia_ns = clock() - t0
                    continue
                mer = api.sample_meridian(crit, case["theta"], N_SECTION)
                t1 = clock()
                dev = api.sample_deviatoric(crit, case["at_p"], N_SECTION)
                mer_ns.append(t1 - t0)
                dev_ns.append(clock() - t1)
            texts = [api.curve_to_csv(c) for c in (mer, dev, bia)]
        ctx.add("meridian_ns", sum(mer_ns) / len(mer_ns))
        ctx.add("deviatoric_ns", sum(dev_ns) / len(dev_ns))
        ctx.add("biaxial_ns", bia_ns)
        ctx.record(self.name, (c, "certify"), bool(report.admissible),
                   "certify rejected a certified section criterion")
        spec = case["spec"]
        for curve, text in zip((mer, dev, bia), texts):
            problem = self.check_curve(spec, case, curve) or self.check_csv(spec, curve, text)
            ctx.record(self.name, (c, curve.kind), problem is None, f"section {curve.kind}: {problem}")

    @staticmethod
    def check_curve(spec, case, curve):
        pts = np.asarray(curve.samples, dtype=float)
        if pts.shape != ((6 * (N_SECTION - 1), 2) if curve.kind == "deviatoric" else (N_SECTION, 2)):
            return f"unexpected sample shape {pts.shape}"
        if not np.all(np.isfinite(pts)):
            return "non-finite sample"
        for x, y in pts:
            if curve.kind == "meridian":
                p, q, th = x, y, case["theta"]
            elif curve.kind == "deviatoric":
                p, q, th = case["at_p"], math.hypot(x, y), ref.fold_theta(math.atan2(y, x))
            else:
                p, q, th = ref.invariants_of((x, y, 0.0))
            F = ref.yield_F(p, q, th, spec)
            if not abs(F) <= 1e-10 * ref.residual_scale(p, q, spec):
                return f"F = {F} at sample ({x}, {y})"
        if curve.kind != "meridian" and not ref.polygon_convex(pts):
            return "polygon is not convex"
        return None

    @staticmethod
    def check_csv(spec, curve, text):
        lines = text.split("\n")
        if not lines[0].startswith("# ") or lines[-1] != "":
            return "CSV header or final newline missing"
        echo = _strict_json(lines[0][2:])
        if any(echo.get(k) != v for k, v in spec.items()):
            return "CSV header does not echo the parameters"
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[2:-1]]
        header = f"{curve.xlabel},{curve.ylabel}"
        if lines[1] != header or rows != [tuple(r) for r in curve.samples.tolist()]:
            return "CSV rows do not round-trip the samples"
        return None

    @staticmethod
    def metrics(samples) -> dict:
        return {
            f"section_{k}_ms": (float(np.median(_ms(samples[f"{k}_ns"]))), "ms")
            for k in ("meridian", "deviatoric", "biaxial")
        }

    @staticmethod
    def unit_cost(samples) -> float:
        return float(sum(np.mean(samples[f"{k}_ns"]) for k in ("meridian", "deviatoric", "biaxial")))


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


class Calibration:
    name = "calibration"
    quota = 26  # one fit of every (row, mode) case
    cycle = 26

    def setup(self, yc, seed: int):
        cases = ref.calibration_cases(ref.rng_for(seed, self.name))
        for case in cases:
            case["problem"] = yc.FitProblem(
                template=yc.criterion_from_dict(case["row"]), free=ref.FIT_FREE, residual_mode=case["mode"]
            )
            pts = np.array(case["points"])
            case["dataset"] = yc.FitDataset(points=pts, weights=np.ones(len(pts)))
        return {"cases": cases, "next": 0}

    def run_unit(self, ctx: Context, inp) -> None:
        c = inp["next"] % len(inp["cases"])
        case = inp["cases"][c]
        inp["next"] += 1
        ctx.start_rms.clear()
        with ctx.traced():
            t0 = time.perf_counter_ns()
            result = ctx.api.fit(case["problem"], case["dataset"], seed=case["fit_seed"])
            t1 = time.perf_counter_ns()
        ctx.add("fit_ns", t1 - t0)
        if ctx.trace_on:
            self.count_agreeing(ctx, result, len(case["dataset"]))
        what = f"fit {case['label']} / {case['mode']} seed {case['fit_seed']}"
        problem = self.check_contract(ctx, case, result)
        if problem is not None:
            ctx.record(self.name, c, False, f"{what}: {problem}")
            return
        missed = self.missed(case, result)
        ctx.record(self.name, c, not missed, f"{what}: {missed} not recovered ({dict(result.values)})",
                   contract=False)

    @staticmethod
    def missed(case, result) -> list[str]:
        """Free parameters more than 1e-3 relative away from the truth."""
        values = dict(result.values)
        row = case["row"]
        return [n for n in ref.FIT_FREE if not abs(values[n] - row[n]) <= 1e-3 * abs(row[n])]

    @staticmethod
    def check_contract(ctx, case, result):
        values = dict(result.values)
        if set(values) != set(ref.FIT_FREE) or not all(math.isfinite(v) for v in values.values()):
            return f"free values {values}"
        for name, v in values.items():
            lo, hi = case["problem"].bound_of(name)
            if not lo <= v <= hi:
                return f"{name}={v} outside its bounds"
        rms = ctx.yc.goodness(result.criterion, case["dataset"], case["mode"])[0]
        if not abs(rms - result.rms) <= 1e-9 * max(rms, 1e-12):
            return f"reported rms {result.rms} != recomputed {rms}"
        return None

    @staticmethod
    def count_agreeing(ctx, result, n_points):
        finals = []
        for kind, res in ctx.start_rms:
            if kind == "least_squares":
                finals.append(float(np.sqrt(np.mean(res.fun**2))))
            else:
                finals.append(math.sqrt(res.fun / n_points))
        tol = 1e-10 + 1e-6 * result.rms
        ctx.add("starts", len(finals))
        ctx.add("starts_agreeing", sum(1 for r in finals if abs(r - result.rms) <= tol))

    @staticmethod
    def metrics(samples) -> dict:
        fit_ms = _ms(samples["fit_ns"])
        return {
            "fits_per_s": (len(fit_ms) / (sum(fit_ms) / 1e3), "1/s"),
            "fit_p50_ms": (float(np.median(fit_ms)), "ms"),
        }

    @staticmethod
    def unit_cost(samples) -> float:
        return float(np.mean(samples["fit_ns"]))


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


class Cli:
    name = "cli"
    COMMANDS = ("eval", "check", "section", "fit")
    quota = 20  # five processes per command
    cycle = 4

    def setup(self, yc, seed: int, workdir: str | None = None):
        inp = ref.cli_inputs(ref.rng_for(seed, self.name))
        files = {"params": "params.json", "problem": "problem.json", "data": "points.csv"}
        if workdir is not None:
            for key, text in (
                ("params", json.dumps(inp["params"])),
                ("problem", json.dumps(inp["problem"])),
                ("data", inp["data_csv"]),
            ):
                with open(os.path.join(workdir, files[key]), "w", encoding="utf-8") as fh:
                    fh.write(text)
        inp["next"] = 0
        stress = ",".join(repr(v) for v in inp["stress"])
        inp["argv"] = {
            "eval": ["eval", "--params", files["params"], f"--stress={stress}"],
            "check": ["check-convexity", "--params", files["params"]],
            "section": ["section", "biaxial", "--params", files["params"]],
            "fit": ["fit", "--data", files["data"], "--problem", files["problem"]],
        }
        return inp

    def run_unit(self, ctx: Context, inp) -> None:
        cmd = self.COMMANDS[inp["next"] % len(self.COMMANDS)]
        inp["next"] += 1
        env = dict(os.environ, PYTHONPATH=os.path.join(ctx.root, "src"))
        if ctx.trace_on:
            spans_path = os.path.join(ctx.workdir, f"spans_{cmd}.csv")
            argv = [sys.executable, "-X", "importtime", os.path.join(HERE, "cli_child.py"), spans_path]
        else:
            argv = [sys.executable, "-m", "yieldcrit.cli"]
        t0 = time.perf_counter()
        proc = subprocess.run(
            argv + inp["argv"][cmd], cwd=ctx.workdir, env=env, capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S,
        )
        ctx.add(f"cli_{cmd}_s", time.perf_counter() - t0)
        ctx.probe_process()
        if ctx.trace_on:
            imports = parse_importtime(proc.stderr)
            ctx.add("import_ms", imports["yieldcrit"])
            ctx.add("scipy_import_ms", imports["scipy"])
            if os.path.exists(spans_path):
                ctx.tracer.load(spans_path)
                os.remove(spans_path)
        problem, contract = self.check(ctx, inp, cmd, proc)
        ctx.record(self.name, cmd, problem is None, f"cli {cmd}: {problem}", contract)

    def expected(self, ctx, inp, cmd):
        """The in-process library result each command must reproduce."""
        cache = inp.setdefault("expected", {})
        if cmd in cache:
            return cache[cmd]
        yc = ctx.yc
        crit = yc.criterion_from_dict(inp["params"])
        if cmd == "eval":
            sig = list(inp["stress"])
            inv, F = yc.invariants(sig), yc.yield_value(sig, crit)
            out = {"p": inv.p, "q": inv.q, "theta": inv.theta, "F": "+inf" if F == math.inf else F}
            try:
                dec = yc.gradient(sig, crit)
                out["gradient"] = [float(v) for v in dec.tensor]
                out["unit_normal"] = [float(v) for v in dec.unit_normal]
            except yc.YieldCritError as exc:
                out.update(gradient=None, unit_normal=None, note=str(exc))
            value = (0, json.loads(json.dumps(out)))
        elif cmd == "check":
            report = yc.certify(yc.criterion_from_dict(inp["params"], unchecked=True))
            value = (0 if report.admissible else 2, json.loads(json.dumps(report.to_dict())))
        elif cmd == "section":
            value = (0, yc.curve_to_csv(yc.sample_biaxial(crit, N_SECTION)))
        else:
            spec = inp["problem"]
            problem = yc.FitProblem(
                template=yc.criterion_from_dict(spec["criterion"], unchecked=True),
                free=tuple(spec["free"]),
                residual_mode=spec["residual_mode"],
            )
            result = yc.fit(problem, yc.load_dataset(inp["data_csv"]), seed=spec["seed"])
            value = (0 if result.converged else 3, json.loads(json.dumps(result.to_dict())))
        cache[cmd] = value
        return value

    def check(self, ctx, inp, cmd, proc):
        """(problem or None, whether the problem breaks the output contract)."""
        rc, want = self.expected(ctx, inp, cmd)
        if proc.returncode != rc:
            return f"exit code {proc.returncode}, library says {rc}: {proc.stderr[-300:]}", True
        if cmd == "section":
            try:
                for line in proc.stdout.split("\n")[2:-1]:
                    x, y = line.split(",")
                    float(x), float(y)
            except ValueError as exc:
                return f"stdout is not CSV: {exc}", True
            if proc.stdout != want:
                return "CSV differs from the library result", True
        else:
            try:
                got = _strict_json(proc.stdout)
            except ValueError as exc:
                return f"stdout is not strict JSON: {exc}", True
            if got != want:
                return f"JSON differs from the library result: {got} != {want}", True
        if rc != 0:
            # The fit returned what the library returns, but did not converge.
            return f"exit code {rc}", False
        return None, False

    @staticmethod
    def metrics(samples) -> dict:
        return {
            f"cli_{cmd}_s": (float(np.median(samples[f"cli_{cmd}_s"])), "s") for cmd in Cli.COMMANDS
        }

    @staticmethod
    def unit_cost(samples) -> float:
        return float(sum(np.mean(samples[f"cli_{cmd}_s"]) for cmd in Cli.COMMANDS))


FAMILIES = {f.name: f for f in (Pointwise(), Sections(), Calibration(), Cli())}
