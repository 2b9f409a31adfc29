"""Independent reference quadratures for validating the planned evaluator.

Two deliberately different code paths:

* a dense brute-force oracle on a uniform radial mesh with an explicit
  epsilon cutoff and Richardson extrapolation in epsilon (the only place
  an epsilon-cutoff realization of the principal value exists), and
* an adaptive constant-exponent evaluator for Q == p built on scipy's
  quadrature, with a closed-form tail.

Both integrate the same interpolant-plus-exterior-rule representative as
the main path; only the quadrature strategy differs, which is exactly
what a dual-route check needs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from fracvexp.exponents import ExponentSpec
from fracvexp.grids import SampledFunction, ZERO_BALL
from fracvexp.nonlocal_operator import f_power
from fracvexp.quadrature import sphere_measure

#: cutoff ladder in units of the coarse grid spacing, descending
EPS_LADDER_1D = (2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7)
#: 2-d uses a coarser ladder: the literal 1-d ladder would need ~1e10 nodes
EPS_LADDER_2D = (2.0 ** -1, 2.0 ** -2, 2.0 ** -3, 2.0 ** -4, 2.0 ** -5)


@dataclass(frozen=True)
class OracleResult:
    value: float
    ladder: tuple            # (eps, partial sum) pairs, eps descending
    i1: float                # |x-y| < 1 portion of the finest partial sum
    i2: float                # |x-y| >= 1 portion plus the analytic tail
    tail: float
    contraction: float       # estimated geometric ratio of ladder differences


def _support_radius(u: SampledFunction, x: np.ndarray) -> float:
    if u.exterior_rule == ZERO_BALL:
        return 1.0 + float(np.linalg.norm(x))
    return float(np.linalg.norm(x)) + math.sqrt(u.dim) * u.extent


def _analytic_tail(spec: ExponentSpec, c: float, r0: float) -> float:
    """omega_N * int_{r0}^inf f_{Q(r)}(u(x)) r^(-1-s Q(r)) dr (u vanishes past r0)."""
    if c == 0.0:
        return 0.0
    s = spec.order
    val, _ = integrate.quad(
        lambda r: abs(c) ** (float(spec.q(r)) - 2.0) * c * r ** (-1.0 - s * float(spec.q(r))),
        r0, np.inf, limit=200)
    return sphere_measure(spec.dimension) * val


def brute_force_plap(spec: ExponentSpec, u: SampledFunction, x,
                     angular: int = 128) -> OracleResult:
    """Uniform-radial-mesh sum excluding B_eps(x), extrapolated in eps.

    The mesh is antipodally symmetric about x, so the excluded ball is a
    true symmetric cutoff; the ladder removal fits the residual C eps^q by
    its empirical geometric ratio.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    N = u.dim
    h = u.spacing
    ladder = EPS_LADDER_1D if N == 1 else EPS_LADDER_2D
    eps = np.array([e * h for e in ladder])
    h_r = eps[-1] / 8.0
    r_out = _support_radius(u, x)
    n_r = int(np.ceil(r_out / h_r))
    s = spec.order

    if N == 1:
        dirs = np.array([[1.0], [-1.0]])
        aw = np.array([1.0, 1.0])
    else:
        th = 2.0 * np.pi * np.arange(angular) / angular
        dirs = np.column_stack([np.cos(th), np.sin(th)])
        aw = np.full(angular, 2.0 * np.pi / angular)

    c = float(u.point_eval(x[None, :])[0])

    contrib = np.zeros(n_r)
    near_mask_sum = 0.0
    chunk = max(1, int(4e6 // max(1, len(dirs))))
    radii = (np.arange(n_r) + 0.5) * h_r
    for lo in range(0, n_r, chunk):
        rr = radii[lo:lo + chunk]
        pos = x[None, None, :] + rr[:, None, None] * dirs[None, :, :]
        uv = u.point_eval(pos.reshape(-1, N)).reshape(len(rr), len(dirs))
        q = np.asarray(spec.q(rr), dtype=float)
        kern = rr ** (-(N + s * q))
        fvals = f_power(c - uv, q[:, None])
        contrib[lo:lo + chunk] = (fvals * aw[None, :]).sum(axis=1) * kern * rr ** (N - 1) * h_r

    sums = []
    for e in eps:
        sums.append(float(contrib[radii > e].sum()))
    i1 = float(contrib[(radii > eps[-1]) & (radii < 1.0)].sum())
    tail = _analytic_tail(spec, c, r_out)
    i2 = float(contrib[radii >= 1.0].sum()) + tail

    # Richardson in eps: S* = S_min + D ratio/(1-ratio) with the empirical ratio
    d = np.diff(sums)
    scale = max(abs(sums[-1]), 1e-30)
    if abs(d[-1]) < 1e-13 * scale:
        value, ratio = sums[-1], 0.0
    else:
        ratio = d[-1] / d[-2] if abs(d[-2]) > 1e-300 else 0.0
        if not (0.0 < ratio < 0.95):
            value, ratio = sums[-1], 0.0
        else:
            value = sums[-1] + d[-1] * ratio / (1.0 - ratio)
    return OracleResult(value + tail,
                        tuple((float(e), float(s_)) for e, s_ in zip(eps, sums)),
                        i1, i2, tail, float(ratio))


def constant_p_plap(p: float, s: float, u: SampledFunction, x,
                    angular: int = 128, delta0: float = 0.25) -> float:
    """Independently coded constant-exponent evaluator (adaptive radial quad).

    Valid only for Q == p; the paired radial integrand is handed to scipy's
    adaptive quadrature with the support boundary as explicit breakpoints,
    and the far tail is the closed form f(u(x)) omega_N R^(-sp)/(sp).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    N = u.dim
    if N == 1:
        dirs = np.array([[1.0], [-1.0]])
        aw = np.array([1.0, 1.0])
    else:
        th = 2.0 * np.pi * np.arange(angular) / angular
        dirs = np.column_stack([np.cos(th), np.sin(th)])
        aw = np.full(angular, 2.0 * np.pi / angular)
    c = float(u.point_eval(x[None, :])[0])

    def g(r: float) -> float:
        pos = x[None, :] + r * dirs
        fv = f_power(c - u.point_eval(pos), p)
        return float((fv * aw).sum()) * r ** (N - 1) * r ** (-(N + s * p))

    r_out = _support_radius(u, x)
    # breakpoints where rays touch the support sphere |y| = 1
    rho = float(np.linalg.norm(x))
    pts = sorted({abs(1.0 - rho), 1.0 + rho})
    pts = [q for q in pts if delta0 < q < r_out]
    total = 0.0
    with warnings.catch_warnings():
        # the paired integrand has an integrable endpoint power; quad's
        # roundoff complaint is far below the comparison tolerance
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(g, 0.0, delta0, limit=200)
        total += val
        edges = [delta0] + pts + [r_out]
        for a, b in zip(edges[:-1], edges[1:]):
            val, _ = integrate.quad(g, a, b, limit=200)
            total += val
    sp = s * p
    tail = f_power(c, p) * sphere_measure(N) * r_out ** (-sp) / sp
    return total + tail
