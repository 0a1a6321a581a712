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

from yieldcrit import Criterion, YieldParams, principal_from_invariants, surface_q, yield_value

# Property tests draw the same examples on every run (seeded from each
# test's own source), so no result depends on a lucky draw or on examples
# saved from an earlier run.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


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
