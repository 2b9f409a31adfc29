"""The plan-application kernel and its per-node reference.

`_apply_numpy` is the kernel every caller runs through `apply_plan`.
`_apply_loop` computes the same sums one node at a time in plain Python;
it is the reference the tests compare the numpy kernel against.  Both sum
each point's rows in plan row order, so results are deterministic.
"""

from __future__ import annotations

import numpy as np


def _node_terms(ptr, idx, coef, ext, bias, wk, pm2, cidx, ccoef, cbias, values):
    """Per-node terms wk·|t|^(p-2)·t and the center values they difference against."""
    c = np.einsum("ps,ps->p", ccoef, values[cidx]) + cbias
    crep = np.repeat(c, np.diff(ptr))
    t = np.einsum("js,js->j", coef, crep[:, None] - values[idx])
    t = t + ext * (crep - bias)
    return wk * np.abs(t) ** pm2 * t, c


def _apply_numpy(ptr, idx, coef, ext, bias, wk, pm2, tag, rho, cidx, ccoef, cbias, values):
    contrib, c = _node_terms(ptr, idx, coef, ext, bias, wk, pm2, cidx, ccoef, cbias, values)
    out = np.add.reduceat(contrib, ptr[:-1])
    # remainder of the dyadic grading below the innermost level: live
    # innermost-level sum times the plan's frozen geometric ratio
    a1 = np.add.reduceat(np.where(tag == 2, contrib, 0.0), ptr[:-1])
    out = out + a1 * rho / (1.0 - rho)
    return out, c


def _apply_loop(ptr, idx, coef, ext, bias, wk, pm2, tag, rho, cidx, ccoef, cbias, values):
    """Per-node loop twin of `_apply_numpy`."""
    npts = len(ptr) - 1
    S = cidx.shape[1]
    out = np.empty(npts)
    cout = np.empty(npts)
    for i in range(npts):
        c = cbias[i]
        for k in range(S):
            c += ccoef[i, k] * values[cidx[i, k]]
        cout[i] = c
        acc = 0.0
        a1 = 0.0
        for j in range(ptr[i], ptr[i + 1]):
            t = 0.0
            for k in range(S):
                t += coef[j, k] * (c - values[idx[j, k]])
            if ext[j] != 0.0:
                t += c - bias[j]
            term = wk[j] * abs(t) ** pm2[j] * t
            acc += term
            if tag[j] == 2:
                a1 += term
        out[i] = acc + a1 * rho[i] / (1.0 - rho[i])
    return out, cout


def apply_plan(plan, values: np.ndarray):
    """Evaluate the planned quadrature on a value vector.

    Returns (field, centers): the operator values and the center values
    u(x_i) the plan resolved (useful to callers forming residuals).
    """
    values = np.ascontiguousarray(values, dtype=float)
    return _apply_numpy(plan.ptr, plan.idx, plan.coef, plan.ext, plan.bias,
                        plan.wk, plan.pm2, plan.level_tag, plan.rho, plan.cidx,
                        plan.ccoef, plan.cbias, values)
