"""Bounded nonlinear least squares from many starting points at once.

A port of the Trust Region Reflective method (Branch, Coleman & Li,
*SIAM J. Sci. Comput.* 21, 1999) as scipy's ``least_squares(method="trf",
x_scale="jac", tr_solver="exact")`` runs it on a finite box: Coleman-Li
scaling of the variables, Jacobian column scaling, the exact trust-region
subproblem solved through an SVD (More's Levenberg-Marquardt iteration),
the choice among the bounded, the reflected and the Cauchy step, and the
stop tests with ftol = xtol = gtol = 1e-8.  Only that path is ported,
with the Jacobian the model gives.

Every start runs the algorithm on its own, with its own radius, step
count and stop test, but all of them advance in lockstep: each step makes
one model call over the trial points of the starts still running (their
residuals and Jacobians) and one stacked SVD.  A start leaves the batch
when its own stop test fires.

Overflow, division by zero and invalid values are expected in the search,
so :func:`solve` runs its loop, model calls included, in one ``np.errstate``
scope that ignores them; the functions it calls open none of their own.
"""

from __future__ import annotations

import numpy as np

EPS = np.finfo(float).eps

# ftol, xtol and gtol.
TOL = 1e-8

# Why a start stopped, by scipy's status code: 0 the evaluation budget,
# 1 gtol, 2 ftol, 3 xtol, 4 ftol and xtol.
STOPS = ("budget", "gtol", "ftol", "xtol", "ftol+xtol")


def _dot(a, b):
    return np.add.reduce(a * b, axis=1)


def _norm(a):
    return np.sqrt(_dot(a, a))


def _matvec(J, s):
    """J_i s_i for a stack of matrices (n, m, k) and vectors (n, k)."""
    return np.matmul(J, s[:, :, None])[:, :, 0]


def _rmatvec(J, f):
    """J_i^T f_i for a stack of matrices (n, m, k) and vectors (n, m)."""
    return np.matmul(f[:, None, :], J)[:, 0, :]


def measure(f, J):
    """What trf reads of residuals f (n, m) and Jacobians J (n, m, k) at a
    point, per row: ``(finite, g, col)`` with the gradient g = J^T f, the
    column norms ``col`` of J, and ``finite`` set where the cost |f|^2 / 2,
    g and the column norms are all finite, and so f and J too.  The search
    starts and steps only from such a point, since its scaling, its
    trust-region subproblem and its reduction ratio need every one of them."""
    g = _rmatvec(J, f)
    col = np.sqrt(np.einsum("imk,imk->ik", J, J))
    # a sum is finite only where each of its terms is
    finite = np.isfinite(_dot(f, f)) & np.isfinite(np.add.reduce(g, axis=1)) & np.isfinite(
        np.add.reduce(col, axis=1)
    )
    return finite, g, col


def strictly_feasible(x, lb, ub, rstep):
    """Rows of x with every component within rstep max(1, |bound|) of a
    bound, or beyond it, moved that far inside it."""
    lb_dist, ub_dist = x - lb, ub - x
    lb_step, ub_step = rstep * np.maximum(1, abs(lb)), rstep * np.maximum(1, abs(ub))
    lower = lb_dist <= np.minimum(ub_dist, lb_step)
    upper = ub_dist <= np.minimum(lb_dist, ub_step)
    x = np.where(upper, ub - ub_step, np.where(lower, lb + lb_step, x))
    return np.where((x < lb) | (x > ub), 0.5 * (lb + ub), x)


def _to_bound(x, s, lb, ub):
    """Largest t >= 0 with x + t s in the box, per row, and the sign of s
    on the components that reach a bound there."""
    moving = s != 0
    s_safe = np.where(moving, s, 1.0)
    t = np.where(moving, np.maximum((lb - x) / s_safe, (ub - x) / s_safe), np.inf)
    t_min = np.minimum.reduce(t, axis=1)
    return t_min, (t == t_min[:, None]) * np.sign(s)


def _quadratic_1d(J, g, s, diag, s0=None):
    """(a, b, c) of the model 0.5 z^T (J^T J + diag) z + g^T z along
    z = s0 + t s (s0 = 0 if None) as a t^2 + b t + c, per row."""
    v = _matvec(J, s)
    a = 0.5 * (_dot(v, v) + _dot(s * diag, s))
    if s0 is None:
        return a, _dot(g, s), 0.0
    u = _matvec(J, s0)
    b = _dot(g, s) + _dot(u, v) + _dot(s0 * diag, s)
    c = 0.5 * _dot(u, u) + _dot(g, s0) + 0.5 * _dot(s0 * diag, s0)
    return a, b, c


def _minimize_1d(a, b, lo, hi, c):
    """Minimizer of a t^2 + b t + c over [lo, hi] and its value, per row;
    ties go to lo, then hi, then the vertex."""
    t = np.broadcast_to(lo, a.shape)
    y = t * (a * t + b) + c
    y_hi = hi * (a * hi + b) + c
    t, y = np.where(y_hi < y, hi, t), np.where(y_hi < y, y_hi, y)
    vertex = -0.5 * b / a
    y_vertex = vertex * (a * vertex + b) + c
    take = (a != 0) & (lo < vertex) & (vertex < hi) & (y_vertex < y)
    return np.where(take, vertex, t), np.where(take, y_vertex, y)


def _far_crossing(x, s, Delta):
    """Larger t with ||x + t s|| = Delta, per row (x inside the region)."""
    a, b = _dot(s, s), _dot(x, s)
    c = _dot(x, x) - Delta**2
    q = -(b + np.copysign(np.sqrt(b * b - a * c), b))
    return np.maximum(q / a, c / q)


def _subproblem(m, uf, s, V, Delta, alpha):
    """Exact solution p_h of min ||J_h p + f|| over ||p|| <= Delta from the
    SVD of the augmented J_h, and its Levenberg-Marquardt parameter."""
    suf = s * uf
    full_rank = s[:, -1] > EPS * m * s[:, 0]
    p = -_matvec(V, uf / s)
    inside = full_rank & (_norm(p) <= Delta)
    alpha = np.where(inside, 0.0, alpha)
    i = (~inside).nonzero()[0]
    if not i.size:
        return p, alpha
    suf, s, V, Delta, full_rank = suf[i], s[i], V[i], Delta[i], full_rank[i]
    s2, suf2 = s**2, suf**2

    def phi(al):
        denom = s2 + al[:, None]
        p_norm = _norm(suf / denom)
        return p_norm - Delta, -np.add.reduce(suf2 / denom**3, axis=1) / p_norm

    upper = _norm(suf) / Delta
    ph, dph = phi(np.zeros(i.size))
    lower = np.where(full_rank, -ph / dph, 0.0)
    al = alpha[i]
    al = np.where(~full_rank & (al == 0), np.maximum(0.001 * upper, np.sqrt(lower * upper)), al)
    going = np.ones(i.size, dtype=bool)
    for _ in range(10):
        reset = going & ((al < lower) | (al > upper))
        al = np.where(reset, np.maximum(0.001 * upper, np.sqrt(lower * upper)), al)
        ph, dph = phi(al)
        upper = np.where(going & (ph < 0), al, upper)
        ratio = ph / dph
        lower = np.where(going, np.maximum(lower, al - ratio), lower)
        al = np.where(going, al - (ph + Delta) * ratio / Delta, al)
        going &= ~(np.abs(ph) < 0.01 * Delta)
        if not going.any():
            break
    pi = -_matvec(V, suf / (s2 + al[:, None]))
    p[i] = pi * (Delta / _norm(pi))[:, None]
    alpha[i] = al
    return p, alpha


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """The trust-region step if it stays in the box; otherwise the best of
    that step cut short at the bound, its reflection off the bound and the
    bounded Cauchy step.  Returns the step, the step in scaled variables
    and the reduction the model predicts for it."""
    a, b, _ = _quadratic_1d(J_h, g_h, p_h, diag_h)
    predicted = -(a + b)
    x_p = x + p
    out = (~np.logical_and.reduce((x_p >= lb) & (x_p <= ub), axis=1)).nonzero()[0]
    if not out.size:
        return p, p_h, predicted
    step, step_h = p.copy(), p_h.copy()
    x, J_h, diag_h, g_h, p, p_h, d = (a[out] for a in (x, J_h, diag_h, g_h, p, p_h, d))
    Delta, theta = Delta[out], theta[out]

    p_stride, hits = _to_bound(x, p, lb, ub)
    r_h = np.where(hits != 0, -p_h, p_h)
    r = d * r_h
    p, p_h = p * p_stride[:, None], p_h * p_stride[:, None]
    to_tr = _far_crossing(p_h, r_h, Delta)
    to_bound, _ = _to_bound(x + p, r, lb, ub)
    r_stride = np.minimum(to_bound, to_tr)
    positive = r_stride > 0
    r_lo = np.where(positive, (1 - theta) * p_stride / r_stride, 0.0)
    r_hi = np.where(positive, np.where(r_stride == to_bound, theta * to_bound, to_tr), -1.0)
    a, b, c = _quadratic_1d(J_h, g_h, r_h, diag_h, p_h)
    t, r_value = _minimize_1d(a, b, r_lo, r_hi, c)
    r_h = r_h * t[:, None] + p_h
    r = r_h * d
    r_value = np.where(r_lo <= r_hi, r_value, np.inf)

    p, p_h = p * theta[:, None], p_h * theta[:, None]
    a, b, _ = _quadratic_1d(J_h, g_h, p_h, diag_h)
    p_value = a + b

    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / _norm(ag_h)
    to_bound, _ = _to_bound(x, ag, lb, ub)
    ag_stride = np.where(to_bound < to_tr, theta * to_bound, to_tr)
    a, b, c = _quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_1d(a, b, 0.0, ag_stride, c)
    ag_h, ag = ag_h * ag_stride[:, None], ag * ag_stride[:, None]

    take_p = (p_value < r_value) & (p_value < ag_value)
    take_r = ~take_p & (r_value < p_value) & (r_value < ag_value)

    def pick(u, v, w):
        return np.where(take_p[:, None], u, np.where(take_r[:, None], v, w))

    step[out], step_h[out] = pick(p, r, ag), pick(p_h, r_h, ag_h)
    predicted[out] = -np.where(take_p, p_value, np.where(take_r, r_value, ag_value))
    return step, step_h, predicted


def _cl_scaling(x, g, lb, ub):
    """Coleman-Li scaling v (distance to the bound the descent direction
    points at, else 1) and its derivative sign dv."""
    to_ub, to_lb = g < 0, g > 0
    v = np.where(to_ub, ub - x, np.where(to_lb, x - lb, 1.0))
    dv = np.where(to_ub, -1.0, np.where(to_lb, 1.0, 0.0))
    return v, dv


def _termination(dF, F, dx_norm, x_norm, ratio):
    """scipy's status code where an ftol or xtol test passes, else -1."""
    ftol = (dF < TOL * F) & (ratio > 0.25)
    xtol = dx_norm < TOL * (TOL + x_norm)
    return np.where(ftol, np.where(xtol, 4, 2), np.where(xtol, 3, -1))


def solve(fun, x0, f0, J0, lb, ub, max_nfev):
    """Run trf from every row of ``x0`` on the box [lb, ub], all in lockstep.

    ``fun`` maps an (n, k) array of points to their (n, m) residuals and
    their (n, m, k) Jacobians.  Every row of ``x0`` lies strictly inside the
    box, and :func:`measure` finds its residuals ``f0`` and Jacobians ``J0``
    finite; a trial point that it does not is rejected.  A start stops
    at its own stop test, or once it has made ``max_nfev`` trial
    evaluations, its first one included.

    Returns ``(x, f, nfev, status)`` per row: the final point and its
    residuals, the trial evaluations taken, and scipy's status code (an
    index into STOPS).
    """
    n, m = f0.shape
    k = x0.shape[1]
    out = (np.empty_like(x0), np.empty_like(f0), np.empty(n, int), np.empty(n, int))
    rows = np.arange(n)
    x, f = x0.copy(), f0.copy()
    cost = 0.5 * _dot(f, f)
    J = J0.copy()
    _, g, scale_inv = measure(f, J)
    scale_inv[scale_inv == 0] = 1.0
    v, dv = _cl_scaling(x, g, lb, ub)
    v = np.where(dv != 0, v * scale_inv, v)
    Delta = _norm(x * scale_inv / v**0.5)
    Delta[Delta == 0] = 1.0
    alpha = np.zeros(n)
    nfev = np.ones(n, dtype=int)
    status = np.full(n, -1)
    # trial points on or beyond a bound move one ulp inside it
    inner_lb, inner_ub = np.nextafter(lb, ub), np.nextafter(ub, lb)
    # each start's [J_h; diag(sqrt(diag_h))], zero off the lower diagonal
    aug = np.zeros((n, m + k, k))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            # The head of trf's outer loop.  A start whose last trial was
            # rejected passes it again with the same x, g and J: its gtol
            # test fails as before, and its scaled problem comes out the same.
            v, dv = _cl_scaling(x, g, lb, ub)
            g_norm = np.maximum.reduce(np.abs(g * v), axis=1)
            status[g_norm < TOL] = 1
            done = (status >= 0) | (nfev == max_nfev)
            if done.any():
                status[done & (status < 0)] = 0
                for o, a in zip(out, (x, f, nfev, status)):
                    o[rows[done]] = a[done]
                keep = ~done
                if not keep.any():
                    return out
                rows, x, f, cost, J, g, scale_inv, aug = (
                    a[keep] for a in (rows, x, f, cost, J, g, scale_inv, aug)
                )
                Delta, alpha, nfev, status, v, dv, g_norm = (
                    a[keep] for a in (Delta, alpha, nfev, status, v, dv, g_norm)
                )
            v = np.where(dv != 0, v * scale_inv, v)
            scale = 1 / scale_inv
            d = v**0.5 * scale
            diag_h = g * dv * scale
            g_h = d * g
            J_h = np.multiply(J, d[:, None, :], out=aug[:, :m])
            aug.reshape(len(aug), -1)[:, m * k :: k + 1] = np.sqrt(diag_h)
            U, sv, Vt = np.linalg.svd(aug, full_matrices=False)
            uf = _rmatvec(U[:, :m], f)
            theta = np.maximum(0.995, 1 - g_norm)

            # one trial step for every start
            p_h, alpha = _subproblem(m, uf, sv, Vt.transpose(0, 2, 1), Delta, alpha)
            step, step_h, predicted = _select_step(
                x, J_h, diag_h, g_h, d * p_h, p_h, d, Delta, lb, ub, theta
            )
            x_new = x + step
            x_new = np.where(x_new >= ub, inner_ub, np.where(x_new <= lb, inner_lb, x_new))
            f_new, J_new = fun(x_new)
            nfev += 1
            step_h_norm = _norm(step_h)
            finite, g_new, col_new = measure(f_new, J_new)
            cost_new = 0.5 * _dot(f_new, f_new)
            reduction = cost - cost_new
            ratio = np.where(
                predicted > 0,
                reduction / predicted,
                np.where((predicted == 0) & (reduction == 0), 1.0, 0.0),
            )
            Delta_new = np.where(
                ratio < 0.25,
                0.25 * step_h_norm,
                np.where((ratio > 0.75) & (step_h_norm > 0.95 * Delta), 2.0 * Delta, Delta),
            )
            ended = _termination(reduction, cost, _norm(step), _norm(x), ratio)
            ended = np.where(finite, ended, -1)
            going = finite & (ended < 0)
            # a trial whose residuals or Jacobian are not finite only shrinks the radius
            alpha = np.where(going, alpha * Delta / Delta_new, alpha)
            Delta = np.where(going, Delta_new, np.where(finite, Delta, 0.25 * step_h_norm))
            status = np.maximum(status, ended)

            accepted = finite & (reduction > 0)
            if accepted.any():
                # a slice, which copies no index, where every start accepts
                a = slice(None) if accepted.all() else accepted.nonzero()[0]
                x[a], f[a], cost[a] = x_new[a], f_new[a], cost_new[a]
                J[a], g[a] = J_new[a], g_new[a]
                scale_inv[a] = np.maximum(col_new[a], scale_inv[a])
