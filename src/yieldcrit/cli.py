"""Command-line front end.

Subcommands: eval, section, check-convexity, fit, compare, realize.
Structured results go to stdout (or --output) as JSON, curves as CSV or
SVG; diagnostics go to stderr.  Exit codes: 0 success, 1 usage error,
2 domain or validation error (including an inadmissible convexity report),
3 fit did not converge.

Unless --unchecked is passed, any subcommand that consumes criterion
parameters certifies them for convexity before computing.  Angles are
radians by default; pass --degrees to use degrees on the command line.

eval, check-convexity and realize run on the scalar core and never import
numpy; section, fit and compare import the array modules they use when
they run.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import sys
from dataclasses import fields

from . import __version__
from .convexity import certify
from .criterion import Criterion, _gradient_body, criterion_from_dict, surface_q_array, yield_value
from .errors import DomainError, ParseError, ValidationError, YieldCritError
from .invariants import invariants
from .limits import (
    CoulombMohr,
    DruckerPrager,
    ModifiedCamClay,
    ModifiedTresca,
    Tresca,
    VonMises,
    gurson_equivalent,
    gurson_meridian_q,
    newman_invariants,
    realize,
)

USAGE_EXIT = 1
DOMAIN_EXIT = 2
NOT_CONVERGED_EXIT = 3

# perfbench's tracer (perfbench/families.py) wraps these module attributes by
# name; the handlers import what they call, so they resolve only on request
_TRACED = {
    "gradient": "criterion",
    "fit": "calibration",
    "sample_biaxial": "sections",
    "curve_to_csv": "sections",
}


def __getattr__(name: str):
    if name in _TRACED:
        return getattr(importlib.import_module(f".{_TRACED[name]}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract reserves 2
    # for domain errors and uses 1 for usage.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _emit(text: str, output: str | None):
    if output:
        # YIELDCRIT_OUTPUT_DIR prefixes relative output paths when set.
        base = os.environ.get("YIELDCRIT_OUTPUT_DIR")
        if base and not os.path.isabs(output):
            output = os.path.join(base, output)
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dumps(obj) -> str:
    """Strict JSON: a NaN or infinity in a result is an error, exit 2."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise YieldCritError(f"result is not finite: {exc}") from None


def _read_text(path: str) -> str:
    """The text of the file at ``path``; ParseError naming the path, the byte
    and its line when the file is not UTF-8, OSError when it cannot be read."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        where = f"{exc.reason} at byte {exc.start}"
        raise ParseError(f"{path} is not UTF-8 text: {where}", data.count(b"\n", 0, exc.start) + 1)


def _load_json(path: str):
    """The JSON document in the file at ``path``; ParseError naming the path,
    and the line where it is known, when the file is not UTF-8 JSON."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        msg = getattr(exc, "msg", exc)
        raise ParseError(f"{path} is not valid JSON: {msg}", getattr(exc, "lineno", None))


def _load_criterion(args) -> Criterion:
    if args.params:
        d = _load_json(args.params)
    else:
        names = ("M", "pc", "c", "m", "alpha", "beta", "gamma")
        missing = [n for n in names if getattr(args, n) is None]
        if missing:
            raise YieldCritError(
                f"no --params file given and inline flags missing: {', '.join('--' + n for n in missing)}"
            )
        d = {n: getattr(args, n) for n in names}
        if args.A is not None:
            d["A"] = args.A
        if args.B is not None:
            d["B"] = args.B
    crit = criterion_from_dict(d, unchecked=args.unchecked)
    if not args.unchecked:
        report = certify(crit)
        if not report.admissible:
            raise YieldCritError(
                "parameters fail convexity certification "
                f"(notes: {'; '.join(report.notes) or 'none'}); pass --unchecked to bypass"
            )
    return crit


def _add_params_args(p: argparse.ArgumentParser):
    p.add_argument("--params", help="criterion parameter JSON file")
    for name in ("M", "pc", "c", "m", "alpha", "beta", "gamma", "A", "B"):
        p.add_argument(f"--{name}", type=float, default=None, help=argparse.SUPPRESS)
    p.add_argument(
        "--unchecked", action="store_true", help="skip convexity certification of the parameters"
    )


def _numbers(text: str, flag: str, count: int) -> list[float]:
    """The ``count`` comma-separated numbers of a flag value such as ``--stress=-1,0,0``."""
    words = {2: "two", 3: "three"}[count]
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        raise YieldCritError(f"{flag} must be {words} comma-separated numbers, got {text!r}")
    if len(parts) != count:
        raise YieldCritError(f"{flag} must have exactly {words} components, got {len(parts)}")
    return parts


def _finite_or_str(x: float):
    if math.isinf(x):
        return "+inf" if x > 0 else "-inf"
    return x


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    crit = _load_criterion(args)
    parts = _numbers(args.stress, "--stress", 3)
    inv = invariants(parts)
    F = yield_value(parts, crit)
    out = {
        "p": inv.p,
        "q": inv.q,
        "theta": math.degrees(inv.theta) if args.degrees else inv.theta,
        "F": _finite_or_str(F),
    }
    try:
        _, _, _, tensor, unit_normal = _gradient_body(parts, crit)
        out["gradient"] = list(tensor)
        out["unit_normal"] = list(unit_normal)
    except YieldCritError as exc:
        out["gradient"] = None
        out["unit_normal"] = None
        out["note"] = str(exc)
    _emit(_json_dumps(out), args.output)
    return 0


def _cmd_section(args) -> int:
    from .sections import curve_to_csv, curve_to_svg, sample_biaxial, sample_deviatoric, sample_meridian

    crit = _load_criterion(args)
    theta = math.radians(args.theta) if args.degrees else args.theta
    if args.which == "meridian":
        p_range = None if args.p_range is None else _numbers(args.p_range, "--p-range", 2)
        curve = sample_meridian(crit, theta, args.n, p_range=p_range)
    elif args.which == "deviatoric":
        curve = sample_deviatoric(crit, args.p, args.n, normalize=args.normalize)
    else:
        curve = sample_biaxial(crit, args.n, normalize=args.normalize)
    text = curve_to_svg(curve) if args.format == "svg" else curve_to_csv(curve)
    _emit(text, args.output)
    return 0


def _cmd_check(args) -> int:
    crit = criterion_from_dict(_load_json(args.params), unchecked=True)
    report = certify(crit)
    _emit(_json_dumps(report.to_dict()), args.output)
    return 0 if report.admissible else DOMAIN_EXIT


def _cmd_fit(args) -> int:
    from .calibration import FitProblem, fit, load_dataset

    spec = _load_json(args.problem)
    if not isinstance(spec, dict):
        raise ValidationError(f"problem JSON must be an object, got {type(spec).__name__}")
    try:
        template = criterion_from_dict(spec["criterion"], unchecked=True)
        free = spec["free"]
    except KeyError as exc:
        raise YieldCritError(f"problem JSON is missing the {exc.args[0]!r} key")
    if not isinstance(free, list) or not all(isinstance(name, str) for name in free):
        raise ValidationError(f"free must be a list of parameter names, got {free!r}")
    seed = spec.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    bounds = tuple((k, (float(v[0]), float(v[1]))) for k, v in spec.get("bounds", {}).items())
    problem = FitProblem(
        template=template,
        free=tuple(free),
        bounds=bounds,
        residual_mode=spec.get("residual_mode", "meridian_distance"),
    )
    # the CSV text itself, so that a missing path is an error, not CSV
    dataset = load_dataset(io.StringIO(_read_text(args.data)))
    result = fit(problem, dataset, init=spec.get("init"), seed=seed)
    _emit(_json_dumps(result.to_dict()), args.output)
    if not result.converged:
        print("fit did not converge; best parameters so far were written", file=sys.stderr)
        return NOT_CONVERGED_EXIT
    return 0


def _cmd_compare(args) -> int:
    import numpy as np

    from .sections import check_sample_count

    check_sample_count(args.n)
    if args.which == "gurson":
        # the Gurson-Tvergaard inputs, in the order both limits functions take them
        inputs = {name: getattr(args, name) for name in ("f", "sigma_m", "q1", "q2", "q3")}
        params = gurson_equivalent(*inputs.values())
        crit = params.criterion()
        header = {"comparison": "gurson", **inputs, **crit.to_dict()}
        ps = np.linspace(-params.c, params.pc, args.n)
        qs = surface_q_array(ps, 0.0, crit)
        q_ref = gurson_meridian_q(ps, *inputs.values())
    else:
        crit = _load_criterion(args)
        header = {"comparison": "newman", "fc": args.fc, **crit.to_dict()}
        s3_max = args.sigma3_max * args.fc
        if not math.isfinite(s3_max):
            raise DomainError(f"--sigma3-max times --fc must be finite, got {s3_max}")
        s3s = np.linspace(0.0, s3_max, args.n)
        ps, q_ref, thetas = np.array([newman_invariants(float(s3), args.fc) for s3 in s3s]).T
        qs = surface_q_array(ps, thetas, crit)
    rows = [f"{p!r},{q!r},{r!r}" for p, q, r in zip(ps.tolist(), qs.tolist(), q_ref.tolist())]
    text = "# " + json.dumps(header) + "\np,q_model,q_reference\n" + "\n".join(rows) + "\n"
    _emit(text, args.output)
    return 0


# realize's kinds; each takes its record's fields from the flags of the same name
_CLASSICAL = {
    "von-mises": VonMises,
    "tresca": Tresca,
    "drucker-prager": DruckerPrager,
    "modified-tresca": ModifiedTresca,
    "coulomb-mohr": CoulombMohr,
    "cam-clay": ModifiedCamClay,
}


def _cmd_realize(args) -> int:
    cls = _CLASSICAL[args.which]
    values = {f.name: getattr(args, f.name) for f in fields(cls)}
    for name, v in values.items():
        if v is None:
            raise YieldCritError(f"realize {args.which} requires --{name}")
    real = realize(cls(**values), scale_exponent=args.k)
    out = real.criterion().to_dict()
    out["scale_exponent"] = real.scale_exponent
    if real.warnings:
        out["warnings"] = list(real.warnings)
    _emit(_json_dumps(out), args.output)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="yieldcrit", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="invariants, F and gradient at a stress state")
    _add_params_args(p)
    p.add_argument(
        "--stress",
        required=True,
        help="principal stresses s1,s2,s3 (use --stress=-1,0,0 for negative leads)",
    )
    p.add_argument("--degrees", action="store_true", help="report theta in degrees")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("section", help="sample a surface section")
    p.add_argument("which", choices=["meridian", "deviatoric", "biaxial"])
    _add_params_args(p)
    p.add_argument("--theta", type=float, default=0.0, help="Lode angle for meridian sections")
    p.add_argument("--degrees", action="store_true", help="interpret --theta in degrees")
    p.add_argument("--p", type=float, default=0.0, help="pressure for deviatoric sections")
    p.add_argument(
        "--p-range",
        dest="p_range",
        help="pressure range LO,HI for meridian sections, needed on a linear meridian "
        "(use --p-range=-1,2 for a negative LO); default the cap [-c, pc]",
    )
    p.add_argument("-n", type=int, default=200, help="sample count")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_section)

    p = sub.add_parser("check-convexity", help="certify parameters and emit the report")
    p.add_argument("--params", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("fit", help="calibrate parameters against a yield-point CSV")
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--problem", required=True, help="fit problem JSON path")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("compare", help="paired model/reference meridian curves")
    cw = p.add_subparsers(dest="which", required=True)
    pg = cw.add_parser("gurson")
    pg.add_argument("--f", type=float, required=True, help="void volume fraction")
    pg.add_argument("--sigma-m", dest="sigma_m", type=float, required=True)
    pg.add_argument("--q1", type=float, default=1.5)
    pg.add_argument("--q2", type=float, default=1.0)
    pg.add_argument("--q3", type=float, default=2.25)
    pg.add_argument("-n", type=int, default=101)
    pg.add_argument("-o", "--output")
    pg.set_defaults(handler=_cmd_compare)
    pn = cw.add_parser("newman")
    _add_params_args(pn)
    pn.add_argument("--fc", type=float, required=True, help="uniaxial compressive strength")
    pn.add_argument("--sigma3-max", dest="sigma3_max", type=float, default=2.0)
    pn.add_argument("-n", type=int, default=20)
    pn.add_argument("-o", "--output")
    pn.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("realize", help="parameter JSON for a classical criterion")
    p.add_argument("which", choices=sorted(_CLASSICAL))
    p.add_argument("--ft", type=float, help="uniaxial tensile strength")
    p.add_argument("--fc", type=float, help="uniaxial compressive strength")
    p.add_argument("--r", type=float, help="strength ratio fc/ft")
    p.add_argument("--M", type=float, help="pressure sensitivity (cam-clay)")
    p.add_argument("--pc", type=float, help="compression strength (cam-clay)")
    p.add_argument("--k", type=int, default=6, help="scale exponent for the infinite limits")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_realize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except YieldCritError as exc:
        print(f"yieldcrit: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except OSError as exc:
        print(f"yieldcrit: {exc}", file=sys.stderr)
        return DOMAIN_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
