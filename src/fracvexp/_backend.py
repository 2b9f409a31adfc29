"""The plan-application kernel and its Jacobian.

`apply_plan` is the one kernel pass: `quadrature.build_plan` runs it on
the values it certified and hands its operator values back as `plan.sums`,
and the solver runs it once per trial.  A pass returns per point the plain
sum of every node term over the graded levels; `jacobian` is its
derivative.  Both read v = [values, plan.ext_values].  Every stencil of a
plan is a row of one sparse matrix `plan.R` over v (see `quadrature`): its
nnz node rows, then point i's center as row nnz + i.  So one product
rv = R (v - m) gives every difference, center minus interpolant as
everywhere else in the lab: t = rv[nnz + i] - rv[row] for a row of point i.
Stencil coefficients sum to one, so the shift m cancels up to rounding; m is
the midrange of the node values, so constant data give v - m = 0 and t = 0
exactly at every point, negated data give -t exactly, and the rounding
scales with the spread of the values rather than their size.  A row with
t = 0 adds exactly 0, since f(0) = 0 for every p (wk |t|^(p-2) t would be
inf * 0 where p < 2).  Each point's rows are summed in plan row order.  At
a grid node the center row is 1.0 on the node: the node value, shifted.

A row array is one float64 per node row (1.9 MB for the 238,655 rows of the
2-d n=15 solver plan).  A pass forms t in the buffer of R (v - m), a row
array plus one float64 per point, then the power and the products in one
work array, in the order (wk |t|^(p-2)) t: beyond its output it holds t,
the work array and a row mask, about 2.1 row arrays.  `jacobian` forms
|t|^(p-2) in t's buffer and the negated slope (wk (p-1)) |t|^(p-2) in one
work array: beyond its dense output about 2 row arrays.
`test_pass_holds_at_most_two_and_a_half_row_arrays` gates both at 2.5.
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
    """Per row, t = (C (v - m))_point - (R (v - m))_row, with v = [values,
    ext_values], C the center rows of R and m = `_shift(values)`: one product."""
    values = np.asarray(values, dtype=float)
    rv = plan.R @ (np.concatenate([values, plan.ext_values]) - _shift(values))
    t = rv[:plan.wk.size]
    return np.subtract(np.repeat(rv[plan.wk.size:], np.diff(plan.ptr)), t, out=t)


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
    """Exact derivative of `apply_plan(plan, values)`, shape (points, values.size).

    Each row's slope s = wk·(p-1)·|t|^(p-2) enters its point's derivative
    as -s times its row of R and as s times the point's center row.  A block
    of k points is one product with R of a 2k-row segment matrix: per point,
    -s on its rows, and the sum of its s on its center row; the two halves
    are added as a pass adds the center after the rows.  Exterior slots are
    constants and drop out.  Where t = 0 and p < 2 the slope is infinite; it
    is taken as 0.
    """
    n, nnz, index = np.size(values), plan.wk.size, plan.R.indptr.dtype
    t = _differences(plan, values)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.abs(t, out=t)
        t **= plan.pm2  # |t|^(p-2), in t's buffer
        d = -1.0 - plan.pm2  # d = -s exactly, the row entries of the segment matrix
        d *= plan.wk
        d *= t
    del t
    d[~np.isfinite(d)] = 0.0
    dc = np.bincount(np.repeat(np.arange(plan.n_points), np.diff(plan.ptr)), d, plan.n_points)
    jac = np.zeros((plan.n_points, n))
    for lo in range(0, plan.n_points, JACOBIAN_BLOCK):
        hi = min(lo + JACOBIAN_BLOCK, plan.n_points)
        a, b, k = plan.ptr[lo], plan.ptr[hi], hi - lo
        cols = np.arange(a, b + k, dtype=index)
        cols[b - a:] = np.arange(nnz + lo, nnz + hi)
        ends = np.concatenate([plan.ptr[lo:hi + 1] - a, np.arange(1, k + 1) + (b - a)])
        seg = sparse.csr_array((np.concatenate([d[a:b], -dc[lo:hi]]), cols, ends.astype(index)),
                               shape=(2 * k, plan.R.shape[0]))
        block = (seg @ plan.R).toarray()
        jac[lo:hi] = block[:k, :n] + block[k:, :n]
    return jac
