"""Pointwise evaluation of the variable-exponent fractional p-Laplacian.

The principal value is realized structurally: quadrature nodes come in
antipodal pairs around the evaluation point, so the leading odd part of
the integrand cancels pair by pair and no small-epsilon cutoff is needed
(an epsilon-cutoff mode exists only inside the brute-force oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, PreconditionError
from .exponents import ExponentSpec
from .quadrature import QuadratureConfig, _gauss_on, build_plan, directions


def f_power(t, p):
    """|t|^(p-2) t: odd and strictly increasing for p > 2, with f(0) = 0
    for every p.  Vectorized; scalar arguments give a float."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 ** (p - 2) is inf for p < 2
        out = np.asarray(np.abs(t) ** (np.asarray(p, dtype=float) - 2.0) * t)
    np.copyto(out, 0.0, where=t == 0.0)
    return out if out.ndim else float(out)


def kernel(spec: ExponentSpec, x, y) -> float:
    """|x-y|^(-(N + s Q(|x-y|))), strictly positive for x != y."""
    dx = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = float(np.sqrt(np.sum(dx * dx)))
    if r == 0.0:
        raise NumericError("kernel is singular at x = y")
    return spec.kernel(r)


def eval_plap(spec: ExponentSpec, u, x, cfg: QuadratureConfig | None = None) -> float:
    """Approximate the principal-value operator at one interior point.

    `u` is a SampledFunction or a ReflectedFunction view; constants map to
    exactly zero (every node contributes f(0) = 0) and negating `u` negates
    the result bit-for-bit, both by construction of the paired plan.
    """
    return float(eval_plap_field(spec, u, x, cfg)[0])


def eval_plap_field(spec: ExponentSpec, u, points,
                    cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Map eval_plap over a batch of points with one shared plan.

    Per-point summation order is fixed by the plan, so each result matches
    the evaluation of its point alone.  A single point may be given flat.
    The values are those of the kernel pass the plan build makes on u.
    """
    return build_plan(spec, u, points, cfg or QuadratureConfig()).sums


@dataclass(frozen=True)
class TailReport:
    """Numerical evidence for membership in the weighted tail space."""

    radii: tuple
    integrals: tuple          # integral over B_R(0) per radius
    increments: tuple
    verdict: str              # 'decaying' or 'inconclusive'
    i1: float                 # portion of the last integral with |x-y| < 1
    i2: float                 # portion with |x-y| >= 1
    tolerance: float


def tail_integrability_check(spec: ExponentSpec, u, x, radii,
                             increment_tolerance: float = 1e-6,
                             angular_nodes: int = 64) -> TailReport:
    """Estimate int_{|y|<R_k} |u(y)|^(p(x,y)-1) / (1 + |y|^(N+s p(x,y))) dy.

    The integrand is bounded (the weight's denominator is >= 1), so plain
    geometric Gauss panels around the origin suffice.  Non-decaying
    increments yield the verdict 'inconclusive', never an error.  A grid or
    point off the spec's dimension, or a non-finite point or radius, is a
    precondition error, as are radii that are not positive and increasing.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if u.dim != spec.dimension or x.shape != (spec.dimension,):
        raise PreconditionError(
            f"grid dimension {u.dim} and point of shape {x.shape} must match "
            f"spec dimension {spec.dimension}")
    if not np.all(np.isfinite(x)):
        raise PreconditionError(f"point must be finite, got {x.tolist()}")
    radii = [float(r) for r in radii]
    if not radii or not all(0.0 < r < np.inf for r in radii) or any(  # NaN fails too
            b <= a for a, b in zip(radii, radii[1:])):
        raise PreconditionError(f"radii must be finite, positive and increasing; got {radii}")

    s, N = spec.order, spec.dimension
    dirs, aw = directions(N, angular_nodes)

    def shell_integral(a: float, b: float) -> tuple[float, float, float]:
        # geometric panels; >= 6 per shell keeps the decaying weight resolved
        edges = np.geomspace(max(a, 1e-9), b, max(7, int(np.ceil(np.log2(b / max(a, 1e-9)))) * 4 + 1)) \
            if a > 0 else np.concatenate([[0.0], np.geomspace(b * 1e-4, b, 25)])
        total, near, far = 0.0, 0.0, 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            rr, ww = _gauss_on(lo, hi, 8)
            pos = rr[:, None, None] * dirs[None, :, :]
            pts = pos.reshape(-1, N)
            w_node = (ww * rr ** (N - 1))[:, None] * aw[None, :]
            uv = u.point_eval(pts)
            dist = np.linalg.norm(pts - x[None, :], axis=1)
            q = np.asarray(spec.q(dist), dtype=float)
            integrand = np.abs(uv) ** (q - 1.0) / (1.0 + np.linalg.norm(pts, axis=1) ** (N + s * q))
            contrib = w_node.ravel() * integrand
            total += float(contrib.sum())
            mask = dist < 1.0
            near += float(contrib[mask].sum())
            far += float(contrib[~mask].sum())
        return total, near, far

    integrals, i1, i2 = [], 0.0, 0.0
    acc = 0.0
    prev = 0.0
    for rk in radii:
        t, n, f = shell_integral(prev, rk)
        acc += t
        i1 += n
        i2 += f
        integrals.append(acc)
        prev = rk
    incs = [integrals[0]] + [b - a for a, b in zip(integrals, integrals[1:])]
    tail_incs = incs[1:] if len(incs) > 1 else incs
    decaying = tail_incs[-1] <= increment_tolerance and (
        len(tail_incs) < 2 or tail_incs[-1] <= tail_incs[0] + increment_tolerance)
    return TailReport(tuple(radii), tuple(integrals), tuple(incs),
                      "decaying" if decaying else "inconclusive",
                      i1, i2, increment_tolerance)
