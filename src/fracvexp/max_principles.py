"""Checkers for the strong, antisymmetric, and boundary maximum principles.

Each checker verifies an implication at the discrete level: if the
conclusion fails the verdict is 'violated' with a witness node plus the
proof-step diagnostic (the operator value at the minimizer, or the
half-space split of the operator difference); if the conclusion holds the
hypotheses are verified and the verdict is 'holds' or, when the
hypotheses themselves fail numerically, 'inconclusive'.

`_operator_difference` is the one copy of Gamma = L(u_lambda) - L(u) that
the antisymmetric principle and the boundary probe read, and
`reflection_difference` the one copy of w = u(x^lambda) - u(x) that they and
the moving-planes sweeps read.  A point's plan rows do not depend on its
batch, so batched values equal single-point ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, PreconditionError
from .exponents import ExponentSpec
from .geometry import PlaneGeometry, axis_plane, reflect_points
from .grids import ReflectedFunction, SampledFunction, interior_mask
from .nonlocal_operator import eval_plap_field, f_power
from .quadrature import (QuadratureConfig, directions, paired_nodes,
                         truncation_radius)

__all__ = [
    "PlaneGeometry", "axis_plane", "MPReport", "ProbeReport",
    "reflection_difference", "check_strong_mp", "check_antisym_mp",
    "boundary_estimate_probe", "j1_j2_split",
    "HYPOTHESIS_TOL", "CONCLUSION_TOL", "HOLDS", "VIOLATED", "INCONCLUSIVE",
]

#: default tolerance when verifying checker hypotheses
HYPOTHESIS_TOL = 1e-6
#: default (looser) tolerance on conclusions: quadrature error enters twice
CONCLUSION_TOL = 1e-5

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class MPReport:
    verdict: str
    witness_point: tuple | None = None
    witness_value: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.witness_point is not None) != (self.verdict == VIOLATED):
            raise PreconditionError("witness present iff verdict is 'violated'")


def reflection_difference(u: SampledFunction, e: np.ndarray, offset,
                          pts: np.ndarray) -> np.ndarray:
    """w = u(x^lambda) - u(x) at each row x of `pts`, reflected across
    {<x,e> = lambda} with `offset` one lambda for all rows or one per row."""
    return u.point_eval(reflect_points(pts, e, offset)) - u.point_eval(pts)


def _node_scan_min(values: np.ndarray, mask: np.ndarray):
    """Minimum over masked nodes; ties resolved by smallest flat index."""
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return None, np.inf
    j = idx[int(np.argmin(values[idx]))]
    return int(j), float(values[j])


def check_strong_mp(spec: ExponentSpec, u: SampledFunction, domain_mask,
                    cfg: QuadratureConfig | None = None,
                    hyp_tol: float = HYPOTHESIS_TOL,
                    concl_tol: float = CONCLUSION_TOL) -> MPReport:
    """Strong maximum principle on a node mask Omega.

    Requires u >= 0 outside Omega (precondition error otherwise).  Verdict
    'violated' carries the interior minimizer and the operator there,
    reproducing the contradiction computation; the degenerate branch checks
    that an interior zero forces u to vanish at every node.  The operator is
    evaluated once, on Omega and the collocation set together; the
    hypothesis reads it on Omega, ties resolved by smallest flat index.
    """
    cfg = cfg or QuadratureConfig()
    mask = np.asarray(domain_mask, dtype=bool).ravel()
    if mask.shape != u.values.shape:
        raise PreconditionError("domain_mask must be a boolean per-node array")
    outside = ~mask
    if np.any(u.values[outside] < -hyp_tol):
        bad = np.nonzero(outside & (u.values < -hyp_tol))[0]
        raise PreconditionError(
            f"u >= 0 outside the domain is violated at {bad.size} nodes, first {int(bad[0])}")

    nodes = u.nodes()
    j_min, min_u = _node_scan_min(u.values, mask)
    if j_min is None:
        return MPReport(HOLDS, diagnostics={"note": "empty domain mask", "min_u": None})

    # one operator pass, on Omega and the collocation set (the nodes strictly
    # inside the unit ball and the box), so it reuses the solver's row set
    at = mask | (interior_mask(u) & u.inside_box(nodes, strict=True))
    field = np.zeros(u.values.shape)
    field[at] = eval_plap_field(spec, u, nodes[at], cfg)
    if min_u < -concl_tol:
        return MPReport(VIOLATED, tuple(nodes[j_min].tolist()), min_u,
                        {"eval_at_min": float(field[j_min]), "min_u": min_u})

    j_bad, min_eval = _node_scan_min(field, mask)
    if min_eval < -hyp_tol:
        return MPReport(INCONCLUSIVE, diagnostics={
            "reason": "operator hypothesis fails on the domain",
            "worst_eval": min_eval,
            "worst_point": nodes[j_bad].tolist(),
            "min_u": min_u})

    diagnostics = {"min_u": min_u, "min_eval": min_eval}
    if min_u <= concl_tol:
        off = np.nonzero(np.abs(u.values) > concl_tol)[0]
        if off.size:
            return MPReport(VIOLATED, tuple(nodes[off[0]].tolist()),
                            float(u.values[off[0]]),
                            {**diagnostics,
                             "reason": "interior zero but u does not vanish everywhere"})
        diagnostics["vanishes_everywhere"] = True
    return MPReport(HOLDS, diagnostics=diagnostics)


def _operator_difference(spec, u, plane, pts, cfg) -> np.ndarray:
    """Gamma = L(u_lambda) - L(u) at each point: one plan per function for the batch."""
    return (eval_plap_field(spec, ReflectedFunction(u, plane), pts, cfg)
            - eval_plap_field(spec, u, pts, cfg))


def check_antisym_mp(spec: ExponentSpec, u: SampledFunction, plane: PlaneGeometry,
                     ball_radius: float = 1.0, m_bound: float | None = None,
                     cfg: QuadratureConfig | None = None,
                     hyp_tol: float = HYPOTHESIS_TOL,
                     concl_tol: float = CONCLUSION_TOL) -> MPReport:
    """Antisymmetric maximum principle for w = u_lambda - u.

    Hypotheses at the discrete level: w >= 0 on half-space nodes outside
    the ball, u in [0, m) with u > 0 on the ball part of the half-space,
    and nonnegativity of the operator difference on those nodes.  The
    conclusion w >= -tol is checked on every half-space node; the
    J1/J2 decomposition at the minimizing node is reported.

    Gamma is evaluated once: on all Omega nodes for the hypothesis (`gamma`
    is its entry at the Omega-minimizer), or there alone if w < -tol.
    """
    cfg = cfg or QuadratureConfig()
    if not 0.0 < ball_radius < np.inf:  # NaN fails too
        raise PreconditionError(f"ball_radius must be finite and positive, got {ball_radius!r}")
    m_bound = spec.m_bound if m_bound is None else float(m_bound)
    nodes = u.nodes()
    in_h = plane.in_halfspace(nodes)
    in_ball = np.linalg.norm(nodes, axis=1) < ball_radius
    omega = in_h & in_ball

    if np.any(u.values < -hyp_tol) or float(np.max(u.values)) >= m_bound:
        raise PreconditionError(
            f"u must take values in [0, m) with m = {m_bound}; "
            f"range is [{u.values.min():.3g}, {u.values.max():.3g}]")
    nonpos = omega & (u.values <= 0.0)
    if np.any(nonpos):
        raise PreconditionError(
            f"u must be positive on the ball part of the half-space; "
            f"{int(nonpos.sum())} offending nodes")

    w = reflection_difference(u, plane.e, plane.offset, nodes)
    out_ball = in_h & ~in_ball
    if np.any(w[out_ball] < -hyp_tol):
        bad = np.nonzero(out_ball & (w < -hyp_tol))[0]
        raise PreconditionError(
            f"w >= 0 outside the ball fails at {int(bad.size)} half-space nodes")

    j_min, min_w = _node_scan_min(w, in_h)
    jo_min, min_w_omega = _node_scan_min(w, omega)

    def split_at(j, gamma):
        j1, j2 = j1_j2_split(spec, u, plane, nodes[j], cfg)
        return {"gamma": float(gamma), "J1": j1, "J2": j2, "omega_minimizer": nodes[j].tolist()}

    if min_w < -concl_tol:
        diag = {"min_w": min_w, "min_w_omega": min_w_omega}
        if jo_min is not None:
            gamma = _operator_difference(spec, u, plane, nodes[[jo_min]], cfg)[0]
            diag.update(split_at(jo_min, gamma))
        return MPReport(VIOLATED, tuple(nodes[j_min].tolist()), min_w, diag)

    # hypothesis: operator difference nonnegative on interior Omega nodes
    diag = {"min_w": min_w, "min_w_omega": min_w_omega}
    if jo_min is not None:
        pts = nodes[omega]
        delta = _operator_difference(spec, u, plane, pts, cfg)
        k_bad = int(np.argmin(delta))
        diag["min_delta"] = float(delta[k_bad])
        diag.update(split_at(jo_min, delta[np.count_nonzero(omega[:jo_min])]))
        if delta[k_bad] < -hyp_tol:
            diag["reason"] = "operator-difference hypothesis fails"
            diag["worst_point"] = pts[k_bad].tolist()
            return MPReport(INCONCLUSIVE, diagnostics=diag)

    if min_w_omega <= concl_tol and jo_min is not None:
        off = np.nonzero(in_h & (np.abs(w) > concl_tol))[0]
        if off.size:
            return MPReport(VIOLATED, tuple(nodes[off[0]].tolist()), float(w[off[0]]),
                            {**diag, "reason": "interior zero of w but w not identically zero"})
        diag["w_vanishes"] = True
    return MPReport(HOLDS, diagnostics=diag)


def j1_j2_split(spec: ExponentSpec, u: SampledFunction, plane: PlaneGeometry,
                x0, cfg: QuadratureConfig | None = None) -> tuple[float, float]:
    """Half-space decomposition of the operator difference at x0.

    J1 integrates the kernel difference kappa against the f-difference over
    the half-space; J2 folds the remaining terms through the reflected
    kernel.  Both integrands are absolutely integrable near x0 when
    p(0)(1-s) > 1, which holds for the shipped configurations; nodes pair
    antipodally near x0 anyway, keeping the sum stable.
    """
    cfg = cfg or QuadratureConfig()
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    N = spec.dimension
    if not plane.in_halfspace(x0, strict=False):
        raise PreconditionError("x0 must lie in the closed half-space")

    dirs, aw = directions(N, cfg.angular_nodes)
    r_eff = truncation_radius(spec, u.values, u.extent, cfg)
    rs, pos, w_node = paired_nodes(x0, u.extent, r_eff, cfg, dirs, aw)
    in_h = plane.in_halfspace(pos)
    y = pos[in_h]
    w = w_node[in_h]

    y_l = plane.reflect(y)
    r1 = np.repeat(rs, len(dirs))[in_h]
    r2 = np.linalg.norm(x0[None, :] - y_l, axis=1)
    q1, q2 = (np.asarray(spec.q(r), dtype=float) for r in (r1, r2))
    k1, k2 = spec.kernel(r1, q1), spec.kernel(r2, q2)

    u_x0 = float(u.point_eval(x0[None, :])[0])
    ul_x0 = float(u.point_eval(plane.reflect(x0[None, :]))[0])
    u_y = u.point_eval(y)
    ul_y = u.point_eval(y_l)

    diff_f = f_power(ul_x0 - ul_y, q1) - f_power(u_x0 - u_y, q1)
    j1 = float(np.sum(w * (k1 - k2) * diff_f))
    folded = diff_f + f_power(ul_x0 - u_y, q2) - f_power(u_x0 - ul_y, q2)
    j2 = float(np.sum(w * k2 * folded))
    return j1, j2


@dataclass(frozen=True)
class ProbeReport:
    deltas: tuple
    ratios: tuple
    window_max: float
    margin: float
    ok: bool
    verdict: str
    diagnostics: dict = field(default_factory=dict)


def boundary_estimate_probe(spec: ExponentSpec, u: SampledFunction,
                            plane_sequence, x_sequence,
                            cfg: QuadratureConfig | None = None,
                            window: int = 4) -> ProbeReport:
    """Hopf-style boundary ratio sequence (operator difference over distance).

    Preconditions: the distances delta_k decrease strictly toward zero and
    w > 0 for the limiting plane on its ball half-space nodes (otherwise
    the probe refuses with verdict 'inconclusive').  The report asserts
    the final-window maximum of the ratios stays below zero and returns
    the realized margin.

    Gamma is evaluated once per distinct plane, on all its points together.
    """
    cfg = cfg or QuadratureConfig()
    planes = list(plane_sequence)
    xs = [np.atleast_1d(np.asarray(x, dtype=float)) for x in x_sequence]
    if len(planes) != len(xs) or not planes:
        raise PreconditionError("plane and point sequences must match and be nonempty")

    deltas = []
    for pl, x in zip(planes, xs):
        d = abs(float(pl.coord(x)) - pl.offset)
        if d == 0.0:
            raise NumericError("delta_k = 0: point sits on its plane")
        deltas.append(d)
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise PreconditionError("delta_k must be strictly decreasing")

    # limiting-plane positivity on ball half-space nodes
    pl0 = planes[-1]
    nodes = u.nodes()
    omega0 = pl0.in_halfspace(nodes) & interior_mask(u)
    if np.any(omega0):
        w0 = reflection_difference(u, pl0.e, pl0.offset, nodes[omega0])
        if float(np.min(w0)) <= 0.0:
            return ProbeReport(tuple(deltas), (), np.nan, np.nan, False, INCONCLUSIVE,
                               {"reason": "w for the limiting plane is not strictly positive",
                                "min_w0": float(np.min(w0))})
    else:
        return ProbeReport(tuple(deltas), (), np.nan, np.nan, False, INCONCLUSIVE,
                           {"reason": "no ball half-space nodes for the limiting plane"})

    ratios = np.empty(len(planes))
    for pl in dict.fromkeys(planes):
        k = [i for i, p in enumerate(planes) if p == pl]
        ratios[k] = (_operator_difference(spec, u, pl, np.array([xs[i] for i in k]), cfg)
                     / np.array(deltas)[k])

    wmax = float(np.max(ratios[-window:]))
    ok = all(r < 0.0 for r in ratios) and wmax < 0.0
    return ProbeReport(tuple(deltas), tuple(ratios.tolist()), wmax, -wmax, ok,
                       HOLDS if ok else VIOLATED,
                       {"window": window, "n": len(ratios)})
