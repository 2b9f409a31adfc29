"""Desk-scale collocation solver for the model Dirichlet problem on the
unit ball: operator(u) = rhs(u) at interior nodes, u = 0 outside.

The scheme is a damped explicit pseudo-time flow with an adaptive step
(halved on residual increase, grown 1.2x on decrease) and a hard clip
into [0, 1-eta].  Existence of a nontrivial discrete solution is not
guaranteed; non-convergence and collapse to the trivial solution are
reported honestly, never masked.  A manufactured mode (radial bump whose
operator image is taken as right-hand side) validates recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._backend import apply_plan
from .errors import NumericError, PreconditionError
from .exponents import ExponentSpec
from .grids import SampledFunction, ZERO_BALL
from .quadrature import QuadratureConfig, _frozen_ratio, build_plan

POWER = "power"
MANUFACTURED = "manufactured"
GENERAL_F = "general_f"


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


@dataclass
class SolveReport:
    iterations: int
    final_residual_sup: float
    converged: bool
    solution: SampledFunction
    range_ok: bool
    trivial_limit: bool = False
    history: list = field(default_factory=list)   # rows: [iter, res_sup, err_sup]
    tau_final: float = 0.0
    applies: int = 0
    message: str = ""
    plan: dict = field(default_factory=dict)      # EvalPlan.counters() of the solver plan

    def to_dict(self):
        return {
            "iterations": self.iterations,
            "final_residual_sup": self.final_residual_sup,
            "converged": bool(self.converged),
            "range_ok": bool(self.range_ok),
            "trivial_limit": bool(self.trivial_limit),
            "history": [[int(i), float(r), None if e is None else float(e)]
                        for i, r, e in self.history],
            "tau_final": self.tau_final,
            "applies": self.applies,
            "message": self.message,
            "plan": dict(self.plan),
            "grid": {"shape": list(self.solution.shape),
                     "extent": self.solution.extent},
        }


def make_ball_grid(n: int, extent: float = 1.5, dim: int = 1) -> SampledFunction:
    return SampledFunction(np.zeros(n ** dim), (n,) * dim, extent, ZERO_BALL)


def interior_mask(u: SampledFunction) -> np.ndarray:
    """Nodes strictly inside the unit ball (the collocation set)."""
    return np.linalg.norm(u.nodes(), axis=1) < 1.0


def bump_profile(a: float, s: float) -> Callable:
    def fn(pts):
        r2 = np.sum(np.atleast_2d(pts) ** 2, axis=1)
        return a * np.maximum(0.0, 1.0 - r2) ** s
    return fn


def manufacture(spec: ExponentSpec, n: int, extent: float = 1.5,
                amplitude: float = 0.5, profile_s: float | None = None,
                cfg: QuadratureConfig | None = None):
    """Radial bump u* = a (1-|x|^2)_+^s and its operator image h on the
    interior nodes; (u*, h) defines a discrete problem whose exact
    solution is u* by construction."""
    if not 0.0 < amplitude < 1.0:
        raise PreconditionError("amplitude must lie in (0,1)")
    cfg = cfg or QuadratureConfig()
    s_prof = spec.order if profile_s is None else float(profile_s)
    u_star = SampledFunction.from_function(
        bump_profile(amplitude, s_prof), extent, n, spec.dimension, ZERO_BALL)
    mask = interior_mask(u_star)
    pts = u_star.nodes()[mask]
    plan = build_plan(spec, u_star, pts, cfg, values_bound=1.0)
    h_int, _ = apply_plan(plan, u_star.values)
    h = np.zeros(u_star.values.size)
    h[np.nonzero(mask)[0]] = h_int
    return u_star, h


def residual(problem: ProblemSpec, u: SampledFunction,
             cfg: QuadratureConfig | None = None, plan=None) -> np.ndarray:
    """r(x_i) = operator(u)(x_i) - rhs(x_i) over interior ball nodes."""
    cfg = cfg or QuadratureConfig()
    mask = interior_mask(u)
    idx = np.nonzero(mask)[0]
    pts = u.nodes()[idx]
    if plan is None:
        plan = build_plan(problem.exponent, u, pts, cfg, values_bound=1.0)
    a_vals, centers = apply_plan(plan, u.values)
    return a_vals - problem.rhs(pts, centers, idx)


def solve(problem: ProblemSpec, initial_guess: SampledFunction,
          cfg: QuadratureConfig | None = None, tol_res: float = 1e-4,
          max_iters: int = 50_000, tau0: float | None = None,
          eta: float = 1e-3, checkpoint_every: int = 25,
          u_star: SampledFunction | None = None) -> SolveReport:
    """Damped pseudo-time iteration u <- clip(u - tau r, 0, 1-eta).

    Stops at sup-norm residual <= tol_res or at the apply budget.
    `u_star`, when given, adds a sup-error column to the checkpoint
    history (manufactured-mode validation).
    """
    cfg = cfg or QuadratureConfig()
    spec = problem.exponent
    if initial_guess.dim != problem.dim:
        raise PreconditionError("initial guess dimension mismatch")
    vals0 = initial_guess.values
    if np.any(vals0 < 0.0) or np.any(vals0 > 1.0 - eta):
        raise PreconditionError("initial guess must take values in [0, 1-eta]")

    mask = interior_mask(initial_guess)
    idx = np.nonzero(mask)[0]
    pts = initial_guess.nodes()[idx]
    if np.any(vals0[~mask] != 0.0):
        raise PreconditionError("initial guess must vanish outside the unit ball")

    plan = build_plan(spec, initial_guess, pts, cfg, values_bound=1.0)

    h = initial_guess.spacing
    tau = tau0 if tau0 is not None else 0.1 * h ** (spec.order * spec.p_minus)

    values = vals0.copy()

    def residual_of(v: np.ndarray) -> np.ndarray:
        a_vals, centers = apply_plan(plan, v)
        return a_vals - problem.rhs(pts, centers, idx)

    def sup_err(v: np.ndarray):
        if u_star is None:
            return None
        return float(np.max(np.abs(v - u_star.values)))

    res = residual_of(values)
    applies = 1
    if not np.all(np.isfinite(res)):
        raise NumericError("non-finite residual at iteration 0")
    res_sup = float(np.max(np.abs(res)))
    history = [(0, res_sup, sup_err(values))]
    accepted = 0
    message = ""

    while applies < max_iters:
        if res_sup <= tol_res:
            # the truncation-remainder ratio is frozen per plan; re-freezing
            # on the candidate solution makes the reported residual match an
            # independent recompute on the returned iterate
            plan.rho = _frozen_ratio(plan, values)
            res = residual_of(values)
            applies += 1
            res_sup = float(np.max(np.abs(res)))
            if res_sup <= tol_res:
                break
        trial = values.copy()
        trial[idx] = np.clip(values[idx] - tau * res, 0.0, 1.0 - eta)
        res_new = residual_of(trial)
        applies += 1
        if not np.all(np.isfinite(res_new)):
            raise NumericError(f"non-finite residual at apply {applies}")
        new_sup = float(np.max(np.abs(res_new)))
        if new_sup > res_sup:
            tau *= 0.5
            if tau < 1e-18:
                message = "step collapsed: iteration stalled"
                break
            continue
        values = trial
        res = res_new
        res_sup = new_sup
        tau *= 1.2
        accepted += 1
        if np.any(values < 0.0) or np.any(values > 1.0 - eta):
            raise NumericError("range invariant violated")  # unreachable: clip
        if accepted % checkpoint_every == 0:
            # keep the frozen remainder ratio tracking the iterate so no
            # single late re-freeze bumps the recorded residual
            plan.rho = _frozen_ratio(plan, values)
            res = residual_of(values)
            applies += 1
            res_sup = float(np.max(np.abs(res)))
            history.append((accepted, res_sup, sup_err(values)))

    if not history or history[-1][0] != accepted:
        history.append((accepted, res_sup, sup_err(values)))

    solution = initial_guess.with_values(values)
    converged = res_sup <= tol_res
    trivial = (problem.rhs_mode == POWER and converged
               and float(np.max(values)) <= 10.0 * eta)
    if not converged and not message:
        message = "apply budget exhausted before tolerance"
    return SolveReport(
        iterations=accepted, final_residual_sup=res_sup, converged=converged,
        solution=solution, range_ok=True, trivial_limit=trivial,
        history=history, tau_final=tau, applies=applies, message=message,
        plan=plan.counters())
