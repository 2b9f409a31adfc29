"""The plan-application kernel, its per-node reference and its Jacobian.

`_apply_numpy` is the kernel every caller runs through `apply_plan`.
`_apply_loop` computes the same sums one node at a time in plain Python;
it is the reference the tests compare the numpy kernel against.
`jacobian` differentiates the kernel's terms.  All read the extended value
vector v = [values, plan.ext_values]: every plan row and center is a plain
stencil into it, exterior values included (see `quadrature`).  Each point's
rows are summed in plan row order, so results are deterministic.
"""

from __future__ import annotations

import numpy as np

#: Points per block of `jacobian`; bounds its temporaries as the grid grows.
JACOBIAN_BLOCK = 16


def _differences(plan, v, lo, hi):
    """Row differences t of points lo..hi-1, their row slice and center values."""
    rows = slice(plan.ptr[lo], plan.ptr[hi])
    c = np.einsum("ps,ps->p", plan.ccoef[lo:hi], v[plan.cidx[lo:hi]])
    crep = np.repeat(c, np.diff(plan.ptr[lo:hi + 1]))
    return np.einsum("js,js->j", plan.coef[rows], crep[:, None] - v[plan.idx[rows]]), rows, c


def _node_terms(plan, v):
    """Per-node terms wk·|t|^(p-2)·t and the center values they difference against."""
    t, _, c = _differences(plan, v, 0, plan.n_points)
    return plan.wk * np.abs(t) ** plan.pm2 * t, c


def _apply_numpy(plan, v):
    contrib, c = _node_terms(plan, v)
    out = np.add.reduceat(contrib, plan.ptr[:-1])
    # remainder of the dyadic grading below the innermost level: live
    # innermost-level sum times the plan's frozen geometric ratio
    a1 = np.add.reduceat(np.where(plan.level_tag == 2, contrib, 0.0), plan.ptr[:-1])
    out = out + a1 * plan.rho / (1.0 - plan.rho)
    return out, c


def _apply_loop(plan, v):
    """Per-node loop twin of `_apply_numpy`."""
    S = plan.cidx.shape[1]
    out, cout = np.empty(plan.n_points), np.empty(plan.n_points)
    for i in range(plan.n_points):
        c = cout[i] = sum(plan.ccoef[i, k] * v[plan.cidx[i, k]] for k in range(S))
        acc = a1 = 0.0
        for j in range(plan.ptr[i], plan.ptr[i + 1]):
            t = sum(plan.coef[j, k] * (c - v[plan.idx[j, k]]) for k in range(S))
            term = plan.wk[j] * abs(t) ** plan.pm2[j] * t
            acc += term
            a1 += term if plan.level_tag[j] == 2 else 0.0
        out[i] = acc + a1 * plan.rho[i] / (1.0 - plan.rho[i])
    return out, cout


def apply_plan(plan, values: np.ndarray):
    """Evaluate the planned quadrature on a value vector.

    Returns (field, centers): the operator values and the center values
    u(x_i) the plan resolved (useful to callers forming residuals).
    """
    v = np.concatenate([np.asarray(values, dtype=float), plan.ext_values])
    return _apply_numpy(plan, v)


def jacobian(plan, values: np.ndarray) -> np.ndarray:
    """Exact derivative of `apply_plan(plan, values)[0]`, shape (points, values.size).

    Each row adds wk·(p-1)·|t|^(p-2), over 1 - rho on the innermost level,
    onto its stencil with a minus sign and, times its coefficient sum, onto
    the center stencil.  Exterior slots are constants and drop out.  Where
    t = 0 and p < 2 the slope is infinite; it is taken as 0.
    """
    n, v = values.size, np.concatenate([np.asarray(values, dtype=float), plan.ext_values])
    jac = np.zeros((plan.n_points, n))
    for lo in range(0, plan.n_points, JACOBIAN_BLOCK):
        hi = min(lo + JACOBIAN_BLOCK, plan.n_points)
        t, rows, _ = _differences(plan, v, lo, hi)
        own = np.repeat(np.arange(hi - lo), np.diff(plan.ptr[lo:hi + 1]))
        with np.errstate(divide="ignore", invalid="ignore"):
            d = plan.wk[rows] * (plan.pm2[rows] + 1.0) * np.abs(t) ** plan.pm2[rows]
        d = np.where(np.isfinite(d), d, 0.0)
        d /= np.where(plan.level_tag[rows] == 2, 1.0 - plan.rho[lo:hi][own], 1.0)
        dc = np.bincount(own, d * plan.coef[rows].sum(axis=1), hi - lo)
        at = np.concatenate([own[:, None] * v.size + plan.idx[rows],
                             np.arange(hi - lo)[:, None] * v.size + plan.cidx[lo:hi]])
        wt = np.concatenate([-d[:, None] * plan.coef[rows], dc[:, None] * plan.ccoef[lo:hi]])
        sums = np.bincount(at.ravel(), wt.ravel(), (hi - lo) * v.size)
        jac[lo:hi] = sums.reshape(hi - lo, v.size)[:, :n]
    return jac
