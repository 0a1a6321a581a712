"""Self-tests of the benchmark's checkers, input generators and span arithmetic.

Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import unittest
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402
from families import Calibration, Cli, Context, Pointwise, Sections  # noqa: E402
from run import ROOT, import_library  # noqa: E402
from spans import has_ancestor, parse_importtime, self_times  # noqa: E402

yc = import_library()


def _ctx() -> Context:
    return Context(yc, ROOT, workdir=None, tracer=None)


def _pointwise_outputs(crit, st):
    inv = yc.invariants(st["stress"])
    try:
        grad = yc.gradient(st["stress"], crit)
    except yc.DegenerateState as exc:
        grad = exc
    return inv, yc.yield_value(st["stress"], crit), yc.surface_q(inv.p, inv.theta, crit), grad


class PointwiseChecker(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        inp = Pointwise().setup(yc, 0)
        cls.pool, cls.crits, cls.batch = inp["pool"], inp["crits"], inp["batches"][0]

    def state(self, cat):
        for st in self.batch:
            if st["cat"] == cat and 0.1 < st["theta"] < ref.PI3 - 0.1:
                return self.pool[st["crit"]], self.crits[st["crit"]], st
            if st["cat"] == cat and cat == "hydrostatic":
                return self.pool[st["crit"]], self.crits[st["crit"]], st
        raise AssertionError(f"no {cat} state in the batch")

    def test_accepts_library_outputs(self):
        for st in self.batch:
            crit = self.crits[st["crit"]]
            res = _pointwise_outputs(crit, st)
            self.assertIsNone(Pointwise().check(_ctx(), self.pool[st["crit"]], crit, st, res, fd=True))

    def test_rejects_perturbed_outputs(self):
        spec, crit, st = self.state("surface")
        inv, F, qs, grad = _pointwise_outputs(crit, st)
        size = abs(st["p"]) + st["q"]
        s0 = ref.residual_scale(st["p"], st["q"], spec)
        bad = [
            (dataclasses.replace(inv, p=inv.p + 1e-8 * size), F, qs, grad),
            (dataclasses.replace(inv, theta=inv.theta + 1e-4), F, qs, grad),
            (inv, F + 1e-8 * s0, qs, grad),
            (inv, F, qs * (1.0 + 1e-8), grad),
            (inv, F, None, grad),
            (inv, F, qs, dataclasses.replace(grad, tensor=grad.tensor + np.array([1e-3, 0.0, 0.0]))),
            (inv, F, qs, yc.DegenerateState("not degenerate")),
        ]
        for k, res in enumerate(bad):
            with self.subTest(k=k):
                self.assertIsNotNone(Pointwise().check(_ctx(), spec, crit, st, res, fd=True))

    def test_degenerate_only_where_generated(self):
        spec, crit, st = self.state("hydrostatic")
        inv, F, qs, _ = _pointwise_outputs(crit, st)
        _, icrit, ist = self.state("interior")
        grad = yc.gradient(ist["stress"], icrit)
        self.assertIsNotNone(Pointwise().check(_ctx(), spec, crit, st, (inv, F, qs, grad), fd=False))
        unflagged = dataclasses.replace(inv, hydrostatic=False)
        self.assertIsNotNone(
            Pointwise().check(_ctx(), spec, crit, st, (unflagged, F, qs, yc.DegenerateState("q = 0")), fd=False)
        )


class SectionsChecker(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.case = Sections().setup(yc, 0)["cases"][0]
        crit = cls.case["crit"]
        cls.curves = [
            yc.sample_meridian(crit, cls.case["theta"], 200),
            yc.sample_deviatoric(crit, cls.case["at_p"], 200),
            yc.sample_biaxial(crit, 200),
        ]

    def test_accepts_library_curves(self):
        for curve in self.curves:
            with self.subTest(kind=curve.kind):
                self.assertIsNone(Sections.check_curve(self.case["spec"], self.case, curve))
                self.assertIsNone(Sections.check_csv(self.case["spec"], curve, yc.curve_to_csv(curve)))

    def test_rejects_perturbed_curves(self):
        for curve in self.curves:
            with self.subTest(kind=curve.kind):
                pts = curve.samples.copy()
                pts[7] *= 1.0 + 1e-7
                moved = dataclasses.replace(curve, samples=pts)
                self.assertIsNotNone(Sections.check_curve(self.case["spec"], self.case, moved))
                text = yc.curve_to_csv(curve).replace(repr(float(curve.samples[7, 1])), "0.5", 1)
                self.assertIsNotNone(Sections.check_csv(self.case["spec"], curve, text))

    def test_polygon_convexity(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        dented = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.2], [1.0, 1.0], [0.0, 1.0]])
        self.assertTrue(ref.polygon_convex(square))
        self.assertFalse(ref.polygon_convex(dented))


class CalibrationChecker(unittest.TestCase):
    def setUp(self):
        self.case = Calibration().setup(yc, 0)["cases"][0]
        row = self.case["row"]
        crit = yc.criterion_from_dict(row)
        rms = yc.goodness(crit, self.case["dataset"], self.case["mode"])[0]
        self.truth = SimpleNamespace(values=tuple((n, row[n]) for n in ref.FIT_FREE), criterion=crit, rms=rms)

    def test_accepts_the_truth(self):
        self.assertIsNone(Calibration.check_contract(_ctx(), self.case, self.truth))
        self.assertEqual(Calibration.missed(self.case, self.truth), [])

    def test_rejects_a_wrong_minimum(self):
        values = dict(self.truth.values)
        values["M"] *= 1.0 + 2e-3
        wrong = SimpleNamespace(values=tuple(values.items()), criterion=self.truth.criterion, rms=self.truth.rms)
        self.assertEqual(Calibration.missed(self.case, wrong), ["M"])

    def test_rejects_inconsistent_results(self):
        bad_rms = SimpleNamespace(values=self.truth.values, criterion=self.truth.criterion, rms=self.truth.rms + 1e-3)
        self.assertIsNotNone(Calibration.check_contract(_ctx(), self.case, bad_rms))
        values = dict(self.truth.values, m=1e6)
        out_of_bounds = SimpleNamespace(values=tuple(values.items()), criterion=self.truth.criterion, rms=self.truth.rms)
        self.assertIsNotNone(Calibration.check_contract(_ctx(), self.case, out_of_bounds))


class CliChecker(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.inp = Cli().setup(yc, 0)
        cls.ctx = _ctx()

    def proc(self, stdout, rc=0):
        return SimpleNamespace(returncode=rc, stdout=stdout, stderr="")

    def test_json_commands(self):
        for cmd in ("eval", "check"):
            with self.subTest(cmd=cmd):
                rc, want = Cli().expected(self.ctx, self.inp, cmd)
                good = json.dumps(want, indent=2) + "\n"
                self.assertEqual(Cli().check(self.ctx, self.inp, cmd, self.proc(good, rc)), (None, False))
                self.assertIsNotNone(Cli().check(self.ctx, self.inp, cmd, self.proc(good, 2))[0])
                changed = dict(want, extra=1)
                self.assertIsNotNone(Cli().check(self.ctx, self.inp, cmd, self.proc(json.dumps(changed), rc))[0])
                nan = good.replace("{", '{"bad": NaN, ', 1)
                self.assertIsNotNone(Cli().check(self.ctx, self.inp, cmd, self.proc(nan, rc))[0])

    def test_csv_command(self):
        rc, want = Cli().expected(self.ctx, self.inp, "section")
        self.assertEqual(Cli().check(self.ctx, self.inp, "section", self.proc(want, rc)), (None, False))
        lines = want.split("\n")
        lines[5] = lines[5].split(",")[0] + ",0.25"
        self.assertIsNotNone(Cli().check(self.ctx, self.inp, "section", self.proc("\n".join(lines), rc))[0])
        lines[5] = "x,y"
        self.assertIsNotNone(Cli().check(self.ctx, self.inp, "section", self.proc("\n".join(lines), rc))[0])


class Counting(unittest.TestCase):
    def test_operations_count_once(self):
        ctx = _ctx()
        for ok in (True, True, False):
            ctx.record("calibration", 0, ok, "fit missed", contract=False)
        ctx.record("calibration", 1, True, "fit")
        ctx.record("cli", "eval", True, "eval")
        self.assertEqual(ctx.tally(), (3, 1))
        self.assertEqual(ctx.tally("calibration"), (2, 1))
        self.assertEqual(ctx.tally("sections"), (0, 0))
        self.assertTrue(ctx.correct)
        ctx.record("cli", "eval", False, "eval differs")
        self.assertEqual(ctx.tally("cli"), (1, 1))
        self.assertFalse(ctx.correct)


class Inputs(unittest.TestCase):
    @staticmethod
    def generated(seed: int) -> str:
        rng = ref.rng_for(seed, "pointwise")
        pool = ref.pointwise_pool(rng)
        states = ref.pointwise_batch(rng, pool, 10)
        srng = ref.rng_for(seed, "sections")
        sections = [ref.section_spec(srng, i) for i in range(8)]
        cases = ref.calibration_cases(ref.rng_for(seed, "calibration"))
        cli = ref.cli_inputs(ref.rng_for(seed, "cli"))
        return ref.fingerprint([pool, states, sections, cases, cli])

    def test_same_seed_same_bytes(self):
        self.assertEqual(self.generated(7), self.generated(7))
        self.assertNotEqual(self.generated(7), self.generated(8))

    def test_category_shares(self):
        states = ref.pointwise_batch(ref.rng_for(3, "pointwise"), ref.pointwise_pool(ref.rng_for(3, "pointwise")), 5)
        cats = [st["cat"] for st in states]
        self.assertEqual(cats.count("interior"), 70)
        for cat in ("theta0", "theta60", "hydrostatic", "outside"):
            self.assertEqual(cats.count(cat), 5)

    def test_calibration_covers_every_row_and_mode(self):
        cases = ref.calibration_cases(ref.rng_for(0, "calibration"))
        self.assertEqual(
            sorted((c["label"], c["mode"]) for c in cases),
            sorted((label, mode) for label, _ in ref.MERIDIAN_ROWS for mode in ref.RESIDUAL_MODES),
        )


class Spans(unittest.TestCase):
    def test_self_time_of_a_span_tree(self):
        # root [0, 100] with children [10, 30] and [25, 50] (overlapping, so
        # their union [10, 50] counts once), a grandchild [12, 20] under the
        # first child, and a child [90, 120] that runs past the root's end.
        start = [0, 10, 25, 12, 90]
        end = [100, 30, 50, 20, 120]
        parent = [-1, 0, 0, 1, 0]
        self.assertEqual(self_times(start, end, parent), [50, 12, 25, 8, 30])
        names = [0, 1, 1, 2, 1]
        self.assertTrue(has_ancestor(3, parent, names, 0))
        self.assertFalse(has_ancestor(3, parent, names, 2))

    def test_importtime_totals(self):
        stderr = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       scipy._lib",
            "import time:       200 |        300 |     scipy",
            "import time:        50 |        350 |   yieldcrit.calibration",
            "import time:        10 |        500 | yieldcrit",
            "import time:         5 |          5 | scipy.special",
        ])
        self.assertEqual(parse_importtime(stderr), {"yieldcrit": 0.5, "scipy": 0.305})


if __name__ == "__main__":
    unittest.main()
