"""Moving-planes diagnostics: plane sweeps, the critical offset estimate
and radial-profile checks.

Sweeps are falsifiable numerical diagnostics of the symmetry conclusion;
they never claim a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .geometry import PlaneGeometry, inner, reflect_points
from .grids import SampledFunction
from .max_principles import reflection_difference

BALL = "ball"
WHOLE_SPACE = "whole-space"

#: default tolerance on w minima
SWEEP_TOL = 1e-5
#: refinement factor for the lambda grid around the first sign change
REFINE_FACTOR = 10


@dataclass(frozen=True)
class SweepReport:
    direction: tuple
    lambda_grid: tuple
    min_w: tuple
    lambda0_estimate: float
    symmetric_verdict: bool
    monotone_verdict: bool
    mode: str
    tol: float
    tol_lambda: float
    decay_ok: bool | None = None
    inconclusive: bool = False


def _plane_minima(u: SampledFunction, e: np.ndarray, offsets: np.ndarray,
                  nodes, coord, ball_mask) -> np.ndarray:
    """min of w_lambda = u(x^lambda) - u(x) over the half-space nodes of each
    plane lambda in `offsets` (inf where a plane has none), all planes in one
    evaluation at the reflected points and one at the nodes themselves."""
    sel = coord[None, :] < offsets[:, None]
    if ball_mask is not None:
        sel &= ball_mask[None, :]
    plane, node = np.nonzero(sel)  # row-major: each plane's nodes are contiguous
    w = reflection_difference(u, e, offsets[plane], nodes[node])
    counts = np.count_nonzero(sel, axis=1)
    hit = counts > 0
    mins = np.full(len(offsets), math.inf)
    mins[hit] = np.minimum.reduceat(w, (np.cumsum(counts) - counts)[hit])
    return mins


def _lambda0_from(grid: np.ndarray, mins: np.ndarray, tol: float) -> float:
    """Largest lambda such that every mu <= lambda has min_w >= -tol."""
    ok = mins >= -tol
    bad = np.nonzero(~ok)[0]
    if bad.size == 0:
        return float(grid[-1])
    if bad[0] == 0:
        return float(grid[0])  # fails from the start; report the left end
    return float(grid[bad[0] - 1])


def sweep(u: SampledFunction, direction, lambda_grid=None, tol: float = SWEEP_TOL,
          mode: str = BALL, refine: int = REFINE_FACTOR, decay_tol: float = 1e-6,
          radial_tol: float = 1e-4) -> SweepReport:
    """Sweep the reflecting plane along `direction` over lambda_grid.

    lambda_grid holds >= 2 finite, strictly increasing offsets <= 0.  Ball
    mode restricts minima to half-space nodes inside the unit ball;
    whole-space mode uses all half-space nodes and additionally requires a
    decay certificate (max |u| over the outer 10% shell below decay_tol),
    reporting `inconclusive` without it.  The radial-profile check is about
    the origin.  One batched evaluation of w gives the minima of all planes;
    a second batch of refine - 1 planes before the first violation tightens
    the lambda0 estimate before reporting.
    """
    e = np.asarray(direction, dtype=float)
    e = PlaneGeometry(tuple(e / np.linalg.norm(e)), 0.0).e  # rejects NaN and zero
    nodes = u.nodes()
    coord = inner(nodes, e)

    if lambda_grid is None:
        lo = -1.0 if mode == BALL else -u.extent
        lambda_grid = np.linspace(lo, 0.0, 101)
    grid = np.asarray(lambda_grid, dtype=float)
    # one plane has no step to set tol_lambda from; NaN passes no comparison
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.isfinite(grid)):
        raise PreconditionError("lambda_grid needs at least 2 finite offsets")
    if np.any(np.diff(grid) <= 0):
        raise PreconditionError("lambda_grid must be strictly increasing")
    if grid[-1] > 0.0 + 1e-12:
        raise PreconditionError("lambda_grid must stay at or below 0")
    if refine < 0:
        raise PreconditionError(f"refine must be >= 0, got {refine}")

    ball_mask = np.linalg.norm(nodes, axis=1) < 1.0 if mode == BALL else None

    decay_ok = None
    if mode == WHOLE_SPACE:
        shell = np.max(np.abs(nodes), axis=1) >= 0.9 * u.extent
        decay_ok = bool(np.max(np.abs(u.values[shell])) <= decay_tol)

    if mode == WHOLE_SPACE:
        # reflected evaluation points must stay inside the sampled box:
        # outside it the decaying function is unknown, not zero
        for lam in (grid[0], grid[-1]):
            sel = coord < lam
            if np.any(sel) and not np.all(u.inside_box(reflect_points(nodes[sel], e, lam))):
                raise PreconditionError(
                    "reflected points leave the sampled box; enlarge the box")

    mins = _plane_minima(u, e, grid, nodes, coord, ball_mask)

    # refinement around the first violation
    bad = np.nonzero(mins < -tol)[0]
    if bad.size and bad[0] > 0:
        j = bad[0]
        fine = np.linspace(grid[j - 1], grid[j], refine + 1)[1:-1]
        fine_mins = _plane_minima(u, e, fine, nodes, coord, ball_mask)
        grid = np.concatenate([grid, fine])
        mins = np.concatenate([mins, fine_mins])
        order = np.argsort(grid)
        grid, mins = grid[order], mins[order]

    tol_l = 2.0 * float(np.min(np.diff(grid)))
    lam0 = _lambda0_from(grid, mins, tol)

    radial = radial_profile_check(u, np.zeros(u.dim), radial_tol)

    inconclusive = mode == WHOLE_SPACE and not decay_ok
    symmetric = bool(lam0 >= -tol_l) and not inconclusive
    return SweepReport(tuple(e.tolist()), tuple(grid.tolist()), tuple(mins.tolist()),
                       lam0, symmetric, radial.passed, mode, tol, tol_l,
                       decay_ok, inconclusive)


@dataclass(frozen=True)
class RadialCheck:
    passed: bool
    max_violation: float
    shell_spread: float
    worst_pair: tuple | None
    tol: float


def radial_profile_check(u: SampledFunction, center, tol: float) -> RadialCheck:
    """Monotone decrease along radii from `center` plus equal-radius
    shell spread, both within tol."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    nodes = u.nodes()
    if not bool(u.inside_box(center[None, :])[0]):
        raise PreconditionError("center must lie inside the grid box")
    r = np.linalg.norm(nodes - center[None, :], axis=1)
    keys = np.round(r / max(u.spacing * 1e-9, 1e-12)).astype(np.int64)
    order = np.lexsort((np.arange(len(r)), keys))
    r_s, v_s, k_s = r[order], u.values[order], keys[order]

    # group contiguous equal radii
    starts = np.nonzero(np.concatenate([[True], k_s[1:] != k_s[:-1]]))[0]
    ends = np.concatenate([starts[1:], [len(k_s)]])
    gmin = np.minimum.reduceat(v_s, starts)
    gmax = np.maximum.reduceat(v_s, starts)
    spread = float(np.max(gmax - gmin)) if len(starts) else 0.0

    run_min = np.minimum.accumulate(gmin)
    viol = gmax[1:] - run_min[:-1]
    if viol.size:
        j = int(np.argmax(viol))
        max_viol = float(viol[j])
        gi = int(np.argmin(np.where(np.arange(len(gmin)) <= j, gmin, np.inf)))
        lo_node = starts[gi] + int(np.argmin(v_s[starts[gi]:ends[gi]]))
        hi_node = starts[j + 1] + int(np.argmax(v_s[starts[j + 1]:ends[j + 1]]))
        worst = (tuple(nodes[order[lo_node]].tolist()),
                 tuple(nodes[order[hi_node]].tolist()))
    else:
        max_viol, worst = 0.0, None
    passed = max_viol <= tol and spread <= tol
    return RadialCheck(passed, max_viol, spread, None if passed else worst, tol)


def sweep_directions(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """`count` >= 1 unit directions: alternating signs in 1-d, seeded angles in 2-d."""
    if count < 1:
        raise PreconditionError(f"need at least one sweep direction, got {count}")
    if dim == 1:
        return np.array([[1.0 if k % 2 == 0 else -1.0] for k in range(count)])
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.0, 2.0 * np.pi, count)
    return np.column_stack([np.cos(th), np.sin(th)])
