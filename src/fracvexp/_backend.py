"""The plan-application kernel and its Jacobian.

`apply_plan` is the one kernel pass: `quadrature.build_plan` runs it on
the values it certified and hands its operator values back as `plan.sums`,
and the solver runs it once per trial.  A pass returns one array, per point
the plain sum of every node term over the graded levels; `jacobian` is its
derivative.  Both read v = [values, plan.ext_values].  A plan stores its row
stencils as one sparse matrix `plan.R` over v (see `quadrature`).  A row's
difference is its point's center value c minus the interpolant at its node,
as everywhere else in the lab: t = (c - m) - (R (v - m))_row, one sparse
product per pass.  A row's coefficients are Lagrange weights that sum to one,
so the shift m cancels up to rounding.  The kernel takes m as the midrange of
the node values, so constant data give t = 0 exactly, negated data give -t
exactly, and the rounding of R v scales with the spread of the values rather
than their size.  A row with t = 0 adds exactly 0, since f(0) = 0 for every
p (wk |t|^(p-2) t would be inf * 0 where p < 2).  Each point's rows are
summed in plan row order.  The centers stay dense stencils (`cidx`,
`ccoef`), read with the einsum `grids.SampledFunction.point_eval` uses, and
enter only t: at a grid node a center is the node value the caller holds.

A row array is one float64 per plan row (1.9 MB for the 238,655 rows of the
2-d n=15 solver plan).  A pass forms t in the buffer of R (v - m) and then
the power and the products in one work array, in the order (wk |t|^(p-2)) t,
so beyond its output it holds t, the work array and a row mask: about 2.1
row arrays.  `jacobian` forms |t|^(p-2) in t's buffer and the slope
(wk (p-1)) |t|^(p-2) in one work array, so beyond its dense output it holds
about 2 row arrays.  `test_pass_holds_at_most_two_and_a_half_row_arrays`
gates both at 2.5.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

#: Points per block of `jacobian`; bounds its dense and sparse products as the grid grows.
JACOBIAN_BLOCK = 16


def _shift(values) -> float:
    """The midrange of the node values: exactly their value if they are
    constant, exactly odd in them, and the same for every point set."""
    return 0.5 * (np.max(values) + np.min(values)) if values.size else 0.0


def _differences(plan, values):
    """Per row, t = (c - m) - R (v - m), with v = [values, ext_values], c the
    row's center value and m = `_shift(values)`."""
    values = np.asarray(values, dtype=float)
    v, m = np.concatenate([values, plan.ext_values]), _shift(values)
    c = np.einsum("ps,ps->p", plan.ccoef, v[plan.cidx])
    t = plan.R @ (v - m)
    return np.subtract(np.repeat(c - m, np.diff(plan.ptr)), t, out=t)


def apply_plan(plan, values: np.ndarray) -> np.ndarray:
    """One kernel pass of `plan` over a value vector (see module docs): the
    operator value at each point."""
    t = _differences(plan, values)
    work = np.abs(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        work **= plan.pm2
        work *= plan.wk
        work *= t
    work[t == 0.0] = 0.0
    return np.add.reduceat(work, plan.ptr[:-1])


def jacobian(plan, values: np.ndarray) -> np.ndarray:
    """Exact derivative of `apply_plan(plan, values)`, shape
    (points, values.size).

    Each row's slope d = wk·(p-1)·|t|^(p-2) enters its point's derivative
    as -d times its stencil (a row of R) and as d times the center stencil.
    The stencil part of a block of points is the product of the segment-sum
    matrix with data -d and indptr `plan.ptr` and R.  Exterior slots are
    constants and drop out.  Where t = 0 and p < 2 the slope is infinite; it
    is taken as 0.
    """
    n = np.size(values)
    t = _differences(plan, values)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.abs(t, out=t)
        t **= plan.pm2  # |t|^(p-2), in t's buffer
        d = plan.pm2 + 1.0
        d *= plan.wk
        d *= t
    del t
    d[~np.isfinite(d)] = 0.0
    dc = np.bincount(np.repeat(np.arange(plan.n_points), np.diff(plan.ptr)), d, plan.n_points)
    jac = np.zeros((plan.n_points, n))
    index = plan.R.indptr.dtype
    for lo in range(0, plan.n_points, JACOBIAN_BLOCK):
        hi = min(lo + JACOBIAN_BLOCK, plan.n_points)
        a, b = plan.ptr[lo], plan.ptr[hi]
        seg = sparse.csr_array((-d[a:b], np.arange(a, b, dtype=index),
                                (plan.ptr[lo:hi + 1] - a).astype(index)),
                               shape=(hi - lo, plan.R.shape[0]))
        block = (seg @ plan.R).toarray()
        np.add.at(block, (np.arange(hi - lo)[:, None], plan.cidx[lo:hi]),
                  dc[lo:hi, None] * plan.ccoef[lo:hi])
        jac[lo:hi] = block[:, :n]
    return jac
