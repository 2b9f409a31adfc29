"""Desk-scale collocation solver for the model Dirichlet problem on the
unit ball: operator(u) = rhs(u) at interior nodes, u = 0 outside.

The scheme is projected Newton on [0, 1-eta] with the exact Jacobian of the
plan (`_backend.jacobian`) and a backtracking line search; it has no
step-size schedule.  Existence of a nontrivial discrete solution is not
guaranteed; non-convergence and collapse to the trivial solution are
reported honestly, never masked.  A manufactured mode (radial bump whose
operator image is taken as right-hand side) validates recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._backend import apply_plan, jacobian
from .errors import NumericError, PreconditionError
from .exponents import ExponentSpec
from .grids import SampledFunction, ZERO_BALL
from .nonlocal_operator import eval_plap_field
from .quadrature import QuadratureConfig, build_plan

POWER = "power"
MANUFACTURED = "manufactured"
GENERAL_F = "general_f"

#: Most halvings of one Newton step before the line search gives up.
MAX_HALVINGS = 30
#: Step of the central difference quotient of the rhs when f' is not given.
FD_STEP = 1e-6


@dataclass
class ProblemSpec:
    """Problem data: exponent spec, reaction term, and domain flavor."""

    exponent: ExponentSpec
    q_function: Callable | float | None = None
    domain: str = "ball_1d"
    rhs_mode: str = POWER
    h_field: np.ndarray | None = None         # manufactured right-hand side
    f: Callable | None = None                 # general_f reaction
    f_prime: Callable | None = None

    def __post_init__(self):
        if self.domain not in ("ball_1d", "ball_2d"):
            raise PreconditionError(f"unknown domain {self.domain!r}")
        if self.rhs_mode not in (POWER, MANUFACTURED, GENERAL_F):
            raise PreconditionError(f"unknown rhs_mode {self.rhs_mode!r}")
        if self.rhs_mode == POWER and self.q_function is None:
            raise PreconditionError("power mode needs q_function")
        if self.rhs_mode == MANUFACTURED and self.h_field is None:
            raise PreconditionError("manufactured mode needs h_field")
        if self.rhs_mode == GENERAL_F:
            if self.f is None:
                raise PreconditionError("general_f mode needs f")
            if self.f_prime is not None:
                ts = np.linspace(-1.0, 1.0, 201)
                if np.any(np.asarray(self.f_prime(ts)) > 1e-12):
                    raise PreconditionError("general_f requires f'(t) <= 0 for t <= 1")

    @property
    def dim(self) -> int:
        return 1 if self.domain == "ball_1d" else 2

    def q_values(self, pts: np.ndarray) -> np.ndarray:
        if callable(self.q_function):
            q = np.asarray(self.q_function(pts), dtype=float).ravel()
        else:
            q = np.full(len(pts), float(self.q_function))
        if np.any(q <= 1.0):
            raise PreconditionError("q(x) must exceed 1 on the domain")
        return q

    def rhs(self, pts: np.ndarray, u_vals: np.ndarray,
            interior_idx: np.ndarray) -> np.ndarray:
        if self.rhs_mode == POWER:
            return u_vals ** self.q_values(pts)
        if self.rhs_mode == MANUFACTURED:
            return np.asarray(self.h_field, dtype=float).ravel()[interior_idx]
        return np.asarray(self.f(u_vals), dtype=float).ravel()

    def rhs_derivative(self, pts: np.ndarray, u_vals: np.ndarray, interior_idx) -> np.ndarray:
        """d rhs / du at u_vals: the diagonal of the rhs Jacobian (0 if manufactured)."""
        if self.rhs_mode == POWER:
            q = self.q_values(pts)
            return q * u_vals ** (q - 1.0)
        if self.rhs_mode == GENERAL_F and self.f_prime is not None:
            return np.asarray(self.f_prime(u_vals), dtype=float).ravel()
        return (self.rhs(pts, u_vals + FD_STEP, interior_idx)
                - self.rhs(pts, u_vals - FD_STEP, interior_idx)) / (2.0 * FD_STEP)


@dataclass
class SolveReport:
    iterations: int
    final_residual_sup: float
    converged: bool
    solution: SampledFunction
    range_ok: bool
    trivial_limit: bool = False
    history: list = field(default_factory=list)   # rows: [step, res_sup, err_sup]
    applies: int = 0
    message: str = ""
    plan: dict = field(default_factory=dict)      # EvalPlan.counters() of the solver plan


def interior_mask(u: SampledFunction) -> np.ndarray:
    """Nodes strictly inside the unit ball (the collocation set)."""
    return np.linalg.norm(u.nodes(), axis=1) < 1.0


def bump_profile(a: float, s: float) -> Callable:
    def fn(pts):
        r2 = np.sum(np.atleast_2d(pts) ** 2, axis=1)
        return a * np.maximum(0.0, 1.0 - r2) ** s
    return fn


def manufacture(spec: ExponentSpec, n: int, extent: float = 1.5,
                amplitude: float = 0.5, cfg: QuadratureConfig | None = None):
    """Radial bump u* = a (1-|x|^2)_+^s and its operator image h on the
    interior nodes, `eval_plap_field` of u* there (0 elsewhere); (u*, h)
    defines a discrete problem whose exact solution is u* by construction."""
    if not 0.0 < amplitude < 1.0:
        raise PreconditionError("amplitude must lie in (0,1)")
    u_star = SampledFunction.from_function(
        bump_profile(amplitude, spec.order), extent, n, spec.dimension, ZERO_BALL)
    mask = interior_mask(u_star)
    h = np.zeros(u_star.values.size)
    h[mask] = eval_plap_field(spec, u_star, u_star.nodes()[mask], cfg)
    return u_star, h


def residual(problem: ProblemSpec, u: SampledFunction,
             cfg: QuadratureConfig | None = None) -> np.ndarray:
    """r(x_i) = operator(u)(x_i) - rhs(x_i) over interior ball nodes.

    The plan is built for u: its tail certificate and kernel pass `sums`
    come from u's values, and the rhs reads `u.values[idx]`; its rows may be
    those of an earlier build on the same points (see `quadrature`)."""
    idx = np.nonzero(interior_mask(u))[0]
    pts = u.nodes()[idx]
    sums = build_plan(problem.exponent, u, pts, cfg or QuadratureConfig()).sums
    return sums - problem.rhs(pts, u.values[idx], idx)


def check_settings(tol_res: float, max_iters: int, eta: float) -> None:
    """Refuse solver settings with no meaning: a `tol_res` that is not finite
    and positive (no residual reaches it), fewer than one kernel pass, and an
    `eta` outside [0, 1), which leaves [0, 1-eta] empty or wider than [0, 1]."""
    if not 0.0 < tol_res < np.inf:
        raise PreconditionError(f"tol_res must be finite and > 0, got {tol_res!r}")
    if not max_iters >= 1:
        raise PreconditionError(f"max_iters must be >= 1, got {max_iters!r}")
    if not 0.0 <= eta < 1.0:
        raise PreconditionError(f"eta must lie in [0, 1), got {eta!r}")


def solve(problem: ProblemSpec, initial_guess: SampledFunction,
          cfg: QuadratureConfig | None = None, tol_res: float = 1e-4,
          max_iters: int = 50_000, eta: float = 1e-3, checkpoint_every: int = 25,
          u_star: SampledFunction | None = None) -> SolveReport:
    """Projected Newton on [0, 1-eta] with a backtracking line search.

    Each step solves J d = r with the exact Jacobian (`lstsq` if singular)
    and halves d, at most MAX_HALVINGS times, until the sup residual of
    clip(u - d, 0, 1-eta) falls.  Every trial is measured against one
    discrete equation, kernel pass = rhs at the trial's node values.  A trial
    is one kernel pass (`apply_plan`; `applies` counts them, with the guess's
    pass, `plan.sums`) and one residual; the accepted trial's gives its
    `history` row [step, sup residual, sup error to `u_star` or None], which
    equals an independent `residual()`.  Stops at tol_res, at `max_iters`
    applies or when the line search finds no decrease; `checkpoint_every` is
    ignored.  The settings must pass `check_settings`.
    """
    check_settings(tol_res, max_iters, eta)
    cfg = cfg or QuadratureConfig()
    values = initial_guess.values.copy()
    idx = np.nonzero(interior_mask(initial_guess))[0]
    pts = initial_guess.nodes()[idx]
    if initial_guess.dim != problem.dim:
        raise PreconditionError("initial guess dimension mismatch")
    if np.any(values < 0.0) or np.any(values > 1.0 - eta):
        raise PreconditionError("initial guess must take values in [0, 1-eta]")
    if np.any(np.delete(values, idx) != 0.0):
        raise PreconditionError("initial guess must vanish outside the unit ball")
    plan = build_plan(problem.exponent, initial_guess, pts, cfg)

    def sup_residual(sums, v):
        res = sums - problem.rhs(pts, v[idx], idx)
        if not np.all(np.isfinite(res)):
            raise NumericError(f"non-finite residual at apply {applies}")
        return res, float(np.max(np.abs(res)))

    applies, history = 1, []  # the build's pass on the guess
    res, res_sup = sup_residual(plan.sums, values)
    while True:
        history.append((len(history), res_sup, None if u_star is None
                        else float(np.max(np.abs(values - u_star.values)))))
        if res_sup <= tol_res or applies >= max_iters:
            break
        jac = jacobian(plan, values)[:, idx]
        jac.flat[::len(idx) + 1] -= problem.rhs_derivative(pts, values[idx], idx)
        try:
            step = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, res, rcond=None)[0]
        for _ in range(MAX_HALVINGS + 1):
            trial = values.copy()
            trial[idx] = np.clip(values[idx] - step, 0.0, 1.0 - eta)
            applies += 1
            trial_res = sup_residual(apply_plan(plan, trial), trial)
            decreased = trial_res[1] < res_sup
            if decreased or applies >= max_iters:
                break
            step = 0.5 * step
        if not decreased:
            break
        values, (res, res_sup) = trial, trial_res

    converged = res_sup <= tol_res
    message = ("" if converged else "apply budget exhausted before tolerance"
               if applies >= max_iters else "line search found no decrease")
    return SolveReport(
        iterations=len(history) - 1, final_residual_sup=res_sup, converged=converged,
        solution=initial_guess.with_values(values), range_ok=True,
        trivial_limit=bool(converged and problem.rhs_mode == POWER and np.max(values) <= 10 * eta),
        history=history, applies=applies, message=message, plan=plan.counters())
