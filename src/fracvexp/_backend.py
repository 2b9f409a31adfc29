"""The plan-application kernel, its per-node reference and its Jacobian.

`level_sums` is the one kernel pass: `apply_plan`, the solver and the ratio
freeze in `quadrature` all read its sums.  `_apply_loop` is the plain-Python
per-node reference of `apply_plan`; `jacobian` differentiates the terms.  All
read v = [values, plan.ext_values], in which every plan row and center is a
plain stencil (see `quadrature`), and sum each point's rows in plan row order.
"""

from __future__ import annotations

from typing import NamedTuple

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


class LevelSums(NamedTuple):
    """Per point: all node terms, the innermost and next dyadic level, the center."""

    total: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    centers: np.ndarray

    def field(self, rho: np.ndarray) -> np.ndarray:
        """The total plus the graded remainder below the innermost level, a1·rho/(1-rho)."""
        return self.total + self.a1 * rho / (1.0 - rho)


def level_sums(plan, values: np.ndarray) -> LevelSums:
    """One kernel pass of `plan` over a value vector (see module docs)."""
    v = np.concatenate([np.asarray(values, dtype=float), plan.ext_values])
    contrib, c = _node_terms(plan, v)
    starts = plan.ptr[:-1]
    a1, a2 = (np.add.reduceat(np.where(plan.level_tag == tag, contrib, 0.0), starts)
              for tag in (2, 1))
    return LevelSums(np.add.reduceat(contrib, starts), a1, a2, c)


def _apply_loop(plan, v):
    """Per-node loop twin of `apply_plan` on the extended value vector v."""
    out, cout = np.empty(plan.n_points), np.empty(plan.n_points)
    for i in range(plan.n_points):
        c = cout[i] = sum(a * v[k] for a, k in zip(plan.ccoef[i], plan.cidx[i]))
        acc = a1 = 0.0
        for j in range(plan.ptr[i], plan.ptr[i + 1]):
            t = sum(a * (c - v[k]) for a, k in zip(plan.coef[j], plan.idx[j]))
            term = plan.wk[j] * abs(t) ** plan.pm2[j] * t
            acc += term
            a1 += term if plan.level_tag[j] == 2 else 0.0
        out[i] = acc + a1 * plan.rho[i] / (1.0 - plan.rho[i])
    return out, cout


def apply_plan(plan, values: np.ndarray):
    """Evaluate the planned quadrature on a value vector: (field, centers), the
    operator values and the center values u(x_i) the plan resolved."""
    sums = level_sums(plan, values)
    return sums.field(plan.rho), sums.centers


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
