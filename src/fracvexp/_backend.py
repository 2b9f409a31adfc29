"""The plan-application kernel and its per-node reference.

`_apply_numpy` is the kernel every caller runs through `apply_plan`.
`_apply_loop` computes the same sums one node at a time in plain Python;
it is the reference the tests compare the numpy kernel against.  Both read
the extended value vector v = [values, plan.ext_values]: every plan row and
center is a plain stencil into it, exterior values included (see
`quadrature`).  Both sum each point's rows in plan row order, so results
are deterministic.
"""

from __future__ import annotations

import numpy as np


def _node_terms(plan, v):
    """Per-node terms wk·|t|^(p-2)·t and the center values they difference against."""
    c = np.einsum("ps,ps->p", plan.ccoef, v[plan.cidx])
    crep = np.repeat(c, np.diff(plan.ptr))
    t = np.einsum("js,js->j", plan.coef, crep[:, None] - v[plan.idx])
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
    ptr, idx, coef, cidx, ccoef = plan.ptr, plan.idx, plan.coef, plan.cidx, plan.ccoef
    npts = len(ptr) - 1
    S = cidx.shape[1]
    out = np.empty(npts)
    cout = np.empty(npts)
    for i in range(npts):
        c = 0.0
        for k in range(S):
            c += ccoef[i, k] * v[cidx[i, k]]
        cout[i] = c
        acc = 0.0
        a1 = 0.0
        for j in range(ptr[i], ptr[i + 1]):
            t = 0.0
            for k in range(S):
                t += coef[j, k] * (c - v[idx[j, k]])
            term = plan.wk[j] * abs(t) ** plan.pm2[j] * t
            acc += term
            if plan.level_tag[j] == 2:
                a1 += term
        out[i] = acc + a1 * plan.rho[i] / (1.0 - plan.rho[i])
    return out, cout


def apply_plan(plan, values: np.ndarray):
    """Evaluate the planned quadrature on a value vector.

    Returns (field, centers): the operator values and the center values
    u(x_i) the plan resolved (useful to callers forming residuals).
    """
    v = np.concatenate([np.asarray(values, dtype=float), plan.ext_values])
    return _apply_numpy(plan, v)
