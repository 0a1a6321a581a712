"""Shared oracles and random-state helpers for the test suite.

The finite-difference oracles here are deliberately independent of the
library's analytic derivative code paths: they only call the scalar
evaluation functions.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.internal.conjecture import providers

from yieldcrit import (
    Criterion,
    DomainError,
    YieldParams,
    principal_from_invariants,
    surface_q,
    yield_value,
)
from yieldcrit.calibration import residual_vector
from yieldcrit.criterion import BOUNDARY_TOL, DELTA_PHI

# Property tests draw the same examples on every run (seeded from each
# test's own source), so no result depends on a lucky draw or on examples
# saved from an earlier run.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# Hypothesis also draws the literals of every loaded local module, and re-reads
# them whenever a module loads, so the test files a run collects would change
# each property's examples.  Draw from Hypothesis's own constants alone.  The
# names are private: should an upgrade rename them, stop here rather than let
# the draws depend on the selection again.
if not (callable(getattr(providers, "_get_local_constants", None)) and hasattr(providers, "Constants")):
    raise ImportError(
        "hypothesis.internal.conjecture.providers has no _get_local_constants or Constants; "
        "tests/conftest.py cannot keep property draws independent of the selected tests"
    )
NO_LOCAL_CONSTANTS = providers.Constants()
providers._get_local_constants = lambda: NO_LOCAL_CONSTANTS


def fd_gradient(fun, x, h=None):
    """Central-difference gradient of a scalar function of an (n,) vector."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return out


def fd_hessian(fun, x, h=1e-4):
    """Central-difference Hessian of a scalar function of an (n,) vector."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            def ev(di, dj):
                y = x.copy()
                y[i] += di
                y[j] += dj
                return fun(y)

            out[i, j] = (ev(h, h) - ev(h, -h) - ev(-h, h) + ev(-h, -h)) / (4.0 * h * h)
    return out


def meridian_convexity_check(alpha: float, m: float, grid_n: int = 2048):
    """Grid check of the cap meridian's convexity, (h')^2 - 2 h'' h >= 0 on (0, 1),
    with h(Phi) = (Phi - Phi^m)(2 (1-alpha) Phi + alpha) written out here.

    Returns ``(ok, (worst_phi, worst_margin))`` where the margin is the raw
    minimum of (h')^2 - 2 h'' h.  Out-of-range (alpha, m) is reported as
    ``(False, (nan, -inf))`` before any grid evaluation.  For admissible
    parameters the condition holds identically, so ok is expected True.
    """
    if grid_n < 2:
        raise DomainError(f"grid_n must be at least 2, got {grid_n}")
    if not (0.0 < alpha < 2.0) or m <= 1.0:
        return False, (math.nan, -math.inf)
    phi = np.linspace(DELTA_PHI, 1.0 - DELTA_PHI, grid_n)
    lin = 2.0 * (1.0 - alpha) * phi + alpha
    h = (phi - phi**m) * lin
    h1 = (1.0 - m * phi ** (m - 1.0)) * lin + 2.0 * (1.0 - alpha) * (phi - phi**m)
    h2 = -m * (m - 1.0) * phi ** (m - 2.0) * lin + 4.0 * (1.0 - alpha) * (1.0 - m * phi ** (m - 1.0))
    margin = h1 * h1 - 2.0 * h2 * h
    i = int(np.argmin(margin))
    return bool(margin[i] >= -BOUNDARY_TOL), (float(phi[i]), float(margin[i]))


def residuals(problem, params, dataset) -> np.ndarray:
    """The residual vector of ``problem`` with its free parameters set to
    ``params``; a value outside its record's range is a ValidationError."""
    return residual_vector(problem.with_values(params), dataset, problem.residual_mode)


def random_params(rng) -> YieldParams:
    """An admissible random parameter set, away from the corner cases."""
    gamma = rng.uniform(0.0, 0.95)
    return YieldParams(
        M=rng.uniform(0.3, 2.0),
        pc=10.0 ** rng.uniform(-0.5, 0.5),
        c=rng.uniform(0.0, 0.5),
        m=rng.uniform(1.5, 6.0),
        alpha=rng.uniform(0.1, 1.9),
        beta=rng.uniform(0.1, 1.9),
        gamma=gamma,
    )


def random_interior_state(rng, crit: Criterion):
    """A stress strictly inside the surface, away from all degeneracies."""
    mer = crit.meridian
    phi = rng.uniform(0.05, 0.95)
    p = phi * (mer.pc + mer.c) - mer.c
    theta = rng.uniform(0.03, math.pi / 3.0 - 0.03)
    qs = surface_q(p, theta, crit)
    q = rng.uniform(0.1, 0.9) * qs
    sig = principal_from_invariants(p, q, theta)
    assert yield_value(sig, crit) < 0.0
    return sig


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
