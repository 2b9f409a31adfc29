"""Numerical certification of the auxiliary lemmas.

Covers the uniform mean-value constant for f(t) = |t|^(p-2) t, positivity
of the kernel difference across a reflecting plane, positivity of the
tail-weight infimum, and the sign of the exponent-comparison derivative
feeding the antisymmetric maximum principle.  Certification is sampled
evidence with reported margins, never a symbolic proof.  The mean-value and
gprime suites check their samples in slices of `SUITE_CHUNK`, so their
temporaries stay bounded as n grows, and report exactly what one pass over
the whole batch would.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import PreconditionError
from .exponents import ExponentSpec
from .geometry import PlaneGeometry
from .nonlocal_operator import f_power, kernel

#: target residual of the mean-value equation, relative to max(1, |f2 - f1|)
MV_RESIDUAL_TOL = 1e-10

#: Samples per slice of the mean-value and gprime suites: 64 KiB per column, cache-sized.
SUITE_CHUNK = 2 ** 13


def _flat(*args):
    """(shape, flat): the arguments as float arrays broadcast to one shape,
    and each of them flattened."""
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in args))
    return args[0].shape, [v.ravel() for v in args]


def _pairs(t1, t2):
    """Per pair (opposite, close, a, b): the case split as masks (signs, then
    |t_small| vs |t_big|/2; 2 t_small is exact) and the magnitudes a <= b of
    t1 and t2.  A slice computes them once, for the slope, the witness and
    the case constants.  Vectorized."""
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    a1, a2 = np.abs(t1), np.abs(t2)
    a, b = np.minimum(a1, a2), np.maximum(a1, a2)
    opposite = t1 * t2 < 0.0
    return opposite, ~opposite & (2.0 * a >= b), a, b


def _c0(opposite, close, p_minus, p_plus):
    """The case constants of the uniform mean-value bound; the close and far
    constants are evaluated on their own samples only.  Vectorized."""
    args = np.broadcast_arrays(opposite, close, p_minus, p_plus)
    opposite, close, p_minus, p_plus = (v.ravel() for v in args)
    out = 1.0 / (2.0 * (p_plus - 1.0))  # the opposite-sign constant
    i = np.flatnonzero(close)
    out[i] = 1.0 / 2.0 ** (p_plus[i] - 2.0)
    i = np.flatnonzero(~(opposite | close))
    out[i] = (2.0 ** (p_minus[i] - 1.0) - 1.0) / ((p_plus[i] - 1.0) * 2.0 ** p_minus[i])
    return out.reshape(args[0].shape)


def _mv_slope(t1, t2, p):
    """(f(t2) - f(t1)) / (t2 - t1) for f(t) = |t|^(p-2) t, without cancellation.

    With magnitudes a <= b: opposite signs give (a^(p-1) + b^(p-1)) / (a + b);
    same sign with a >= b/2 (b - a exact) gives b^(p-2) (1 - (1-q)^(p-1)) / q
    with q = (b - a)/b via expm1/log1p; same sign with a < b/2 keeps the
    direct quotient, which does not cancel there.  Vectorized; 0 where t1 == t2.
    """
    shape, (t1, t2, p) = _flat(t1, t2, p)
    return _slope(_pairs(t1, t2), p).reshape(shape)


def _slope(pairs, p):
    """`_mv_slope` from the `_pairs` of flat samples, each case evaluated
    on its own samples only."""
    opposite, close, a, b = pairs
    out = np.zeros(a.size)
    i = np.flatnonzero(opposite)
    ac, bc, pc = a[i], b[i], p[i]
    out[i] = (ac ** (pc - 1.0) + bc ** (pc - 1.0)) / (ac + bc)
    i = np.flatnonzero(close & (a < b))  # 0 where a == b
    ac, bc, pc = a[i], b[i], p[i]
    q = (bc - ac) / bc
    out[i] = bc ** (pc - 2.0) * -np.expm1((pc - 1.0) * np.log1p(-q)) / q
    i = np.flatnonzero(~(opposite | close))  # 2a < b, so a < b
    ac, bc, pc = a[i], b[i], p[i]
    out[i] = (bc ** (pc - 1.0) - ac ** (pc - 1.0)) / (bc - ac)
    return out


def mean_value_point(slope, k, lo, hi):
    """The point a of [lo, hi] where k a^(k-1), the derivative of a^k,
    equals `slope`: (slope/k)^(1/(k-1)) in closed form.  Vectorized.

    The clip to the bracket is needed: for k near 1 the power 1/(k-1)
    amplifies the rounding of slope/k, so the raw formula can leave it
    (for f(t) = |t|^(p-2) t at p = nextafter(2, 3), the pair
    (0.5, 0.5000001) gives 0.368)."""
    k = np.asarray(k, dtype=float)
    return np.clip((slope / k) ** (1.0 / (k - 1.0)), lo, hi)


def witness_alpha(t1, t2, p):
    """Signed alpha with f(t2) - f(t1) = f'(alpha)(t2 - t1), f(t) = |t|^(p-2) t.

    f'(a) = (p-1)|a|^(p-2) is even and increasing in |a|, so |alpha| is the
    `mean_value_point` with k = p - 1 on [min|t|, max|t|] (same signs) or
    [0, max|t|] (opposite signs).  alpha takes the sign that lands it in
    [min(t1,t2), max(t1,t2)], the positive one on ties.  A zero slope
    (t1 == t2, or f(t1) and f(t2) colliding through underflow) gives the
    endpoint of larger magnitude, a valid witness in that degenerate
    arithmetic.  Vectorized.
    """
    shape, (t1, t2, p) = _flat(t1, t2, p)
    return _witness(t1, t2, p, _pairs(t1, t2)).reshape(shape)


def _witness(t1, t2, p, pairs):
    """`witness_alpha` of flat samples, from their `_pairs`."""
    opposite, _, a, b = pairs
    slope = _slope(pairs, p)
    m = mean_value_point(slope, p - 1.0, np.where(opposite, 0.0, a), b)
    alpha = np.where(m <= np.maximum(t1, t2), m, -m)  # m >= min(t1, t2) by the bracket
    i = np.flatnonzero(slope == 0.0)
    alpha[i] = np.where(np.abs(t1[i]) == b[i], t1[i], t2[i])
    return alpha


def _mv_residual(t1, t2, p, alpha_pow):
    """|f(t2) - f(t1) - f'(alpha)(t2 - t1)| / max(1, |f(t2) - f(t1)|), given |alpha|^(p-2)."""
    df = f_power(t2, p) - f_power(t1, p)
    resid = np.abs(df - (p - 1.0) * alpha_pow * (t2 - t1))
    return resid / np.maximum(1.0, np.abs(df))


def _c0_margin(alpha_pow, t_max_pow, c0):
    """(ok, margin) of |alpha|^(p-2) >= c0 max|t|^(p-2), to a relative 1e-12, given both powers."""
    rhs = c0 * t_max_pow
    return alpha_pow >= rhs * (1.0 - 1e-12), alpha_pow - rhs


@dataclass(frozen=True)
class KernelMonotoneResult:
    ok: bool
    kappa: float
    boundary: bool


def check_kernel_monotone(spec: ExponentSpec, plane: PlaneGeometry,
                          x0, y) -> KernelMonotoneResult:
    """kappa(x0, y) = K(x0, y) - K(x0, y_lambda) must be positive for
    x0 in the closed half-space and y strictly inside it; y on the plane
    is the reflection fixed point with kappa exactly zero."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not plane.in_halfspace(x0, strict=False):
        raise PreconditionError("x0 must lie in the closed half-space")
    if not plane.in_halfspace(y, strict=False):
        raise PreconditionError("y must lie in the (closed) half-space")
    y_l = plane.reflect(y)
    if np.array_equal(y_l, y):
        return KernelMonotoneResult(True, 0.0, True)
    kap = kernel(spec, x0, y) - kernel(spec, x0, y_l)
    return KernelMonotoneResult(kap > 0.0, float(kap), False)


@dataclass(frozen=True)
class InfimumReport:
    infimum: float
    argmin: tuple
    far_field_ratio: float
    positive: bool
    samples: int


def check_cx_positive(spec: ExponentSpec, x, samples: int = 2000,
                      rng: np.random.Generator | None = None) -> InfimumReport:
    """Sampled infimum over |x-y| > 1 of |x-y|^(N+sp)/(1+|y|^(N+sp)).

    Samples radii from 1 + 1e-6 out to 1e3, plus a far-field ray check where
    the ratio tends to a positive limit; both must be positive.  The point
    x = 0 is excluded, as in the statement being certified.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if float(np.linalg.norm(x)) == 0.0:
        raise PreconditionError("the infimum statement excludes x = 0")
    if samples < 1:
        raise PreconditionError("samples must be >= 1")
    rng = rng or np.random.default_rng(0)
    N, s = spec.dimension, spec.order

    n_r = max(8, samples // 64)
    radii = np.concatenate([
        [1.0 + 1e-6, 1.0 + 1e-3],
        np.geomspace(1.01, 1e3, n_r),
    ])
    if N == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        th = rng.uniform(0.0, 2.0 * np.pi, size=max(8, samples // n_r))
        dirs = np.column_stack([np.cos(th), np.sin(th)])

    pos = x[None, None, :] + radii[:, None, None] * dirs[None, :, :]
    pts = pos.reshape(-1, N)
    d = np.repeat(radii, len(dirs))
    q = np.asarray(spec.q(d), dtype=float)
    expo = N + s * q
    ratio = d ** expo / (1.0 + np.linalg.norm(pts, axis=1) ** expo)

    i_min = int(np.argmin(ratio))
    far = x[None, :] + 1e9 * dirs[:1]
    qf = float(spec.q(1e9))
    far_ratio = float(1e9 ** (N + s * qf) / (1.0 + np.linalg.norm(far[0]) ** (N + s * qf)))
    inf_v = float(ratio[i_min])
    return InfimumReport(inf_v, tuple(pts[i_min].tolist()), far_ratio,
                         inf_v > 0.0 and far_ratio > 0.0, int(ratio.size))


def gprime_margin(t0, p1, p2):
    """(p1-1)|t0|^(p1-2) - (p2-1)|t0|^(p2-2), nonnegative when
    1 - 1/ln(m) <= p1 <= p2 and |t0| < m (vectorized)."""
    a, p1, p2 = np.abs(np.asarray(t0, dtype=float)), np.asarray(p1, float), np.asarray(p2, float)
    return (p1 - 1.0) * a ** (p1 - 2.0) - (p2 - 1.0) * a ** (p2 - 2.0)


# ---------------------------------------------------------------------------
# Randomized suites (seeded, reproducible)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteReport:
    name: str
    passed: bool
    count: int
    failures: int
    min_margin: float
    max_residual: float
    seed: int
    detail: dict = field(default_factory=dict)


def _brentq_alpha(slope: float, t_max: float, p: float) -> float:
    """|alpha| by brentq on psi(a) = (p-1) a^(p-2) - slope over [0, t_max],
    t_max = max|t|: a reference for `witness_alpha` that shares only the
    slope `_mv_slope` with it."""
    def psi(a: float) -> float:
        return (p - 1.0) * a ** (p - 2.0) - slope

    if slope == 0.0 or psi(t_max) <= 0.0:
        # the zero-slope edge rule, or psi (increasing from -slope) first
        # reaching zero at the bracket end in floats
        return t_max
    return brentq(psi, 0.0, t_max)


def _chunked(check, n: int, *samples) -> tuple:
    """(failures, min margin, max residual) over slices of `SUITE_CHUNK` of the n
    samples; `check` maps a slice to per-sample (failed, margin, residual)."""
    failures, margin, resid = 0, np.inf, 0.0
    for lo in range(0, n, SUITE_CHUNK):
        bad, m, r = check(*(v[lo:lo + SUITE_CHUNK] for v in samples))
        failures += int(np.count_nonzero(bad))
        margin, resid = np.minimum(margin, np.min(m)), np.maximum(resid, np.max(r))
    return failures, float(margin), float(resid)


def _require_samples(n: int) -> None:
    if n < 1:  # a suite's minima reduce over its samples
        raise PreconditionError(f"a lemma suite needs n >= 1 samples, got {n}")


def _mean_value_chunk(t1, t2, p):
    """Per pair: (failed, c0 margin, mean-value residual) of its witness."""
    pairs = _pairs(t1, t2)
    alpha_pow = np.abs(_witness(t1, t2, p, pairs)) ** (p - 2.0)
    resid = _mv_residual(t1, t2, p, alpha_pow)
    ok, margin = _c0_margin(alpha_pow, pairs[3] ** (p - 2.0), _c0(*pairs[:2], p, p))
    return ~(ok & (resid <= MV_RESIDUAL_TOL)), margin, resid


def run_mean_value_suite(n: int = 100_000, seed: int = 0,
                         p_range: tuple = (2.0, 6.0),
                         spot_checks: int = 200) -> SuiteReport:
    """n seeded samples of (t1, t2, p); every witness must satisfy the
    case bound and the mean-value residual tolerance.

    The witnesses come from `witness_alpha`, the bound from `_c0_margin`
    with the case constants `_c0` of the cases of `_pairs`; `spot_checks` samples
    are re-derived by `_brentq_alpha` and must agree to 1e-9.
    """
    _require_samples(n)
    rng = np.random.default_rng(seed)
    t1 = rng.uniform(-1.0, 1.0, n)
    t2 = rng.uniform(-1.0, 1.0, n)
    lo_p = np.nextafter(p_range[0], p_range[1])
    p = rng.uniform(lo_p, p_range[1], n)
    idx = rng.choice(n, size=min(spot_checks, n), replace=False)

    failures, margin, resid = _chunked(_mean_value_chunk, n, t1, t2, p)

    t1, t2, p = t1[idx], t2[idx], p[idx]  # a pair's witness does not depend on its batch
    a, t_max = np.abs(witness_alpha(t1, t2, p)), np.maximum(np.abs(t1), np.abs(t2))
    ref = np.array([_brentq_alpha(*args) for args in  # Python floats keep brentq fast
                    zip(_mv_slope(t1, t2, p).tolist(), t_max.tolist(), p.tolist())])
    spot_fail = int(np.count_nonzero(np.abs(ref - a) > 1e-9 * np.maximum(1.0, a)))

    failures += spot_fail
    return SuiteReport("mean_value_c0", failures == 0, n, failures, margin, resid, seed,
                       {"spot_checks": int(len(idx)), "spot_failures": spot_fail})


def run_kernel_monotone_suite(spec: ExponentSpec, n: int = 10_000,
                              seed: int = 0) -> SuiteReport:
    """n random (x0, y, plane) configurations; kappa must be positive off
    the plane and exactly zero on it."""
    _require_samples(n)
    rng = np.random.default_rng(seed)
    N = spec.dimension
    lam = rng.uniform(-1.0, 0.5, n)
    if N == 1:
        e = np.ones((n, 1))
    else:
        th = rng.uniform(0.0, 2.0 * np.pi, n)
        e = np.column_stack([np.cos(th), np.sin(th)])
    # x0 strictly inside the half-space (kappa degenerates to 0 for x0 on
    # the plane), y strictly inside as well
    x0 = rng.uniform(-2.0, 2.0, (n, N))
    y = rng.uniform(-2.0, 2.0, (n, N))
    cx = np.einsum("ij,ij->i", x0, e)
    cy = np.einsum("ij,ij->i", y, e)
    gap_x = rng.uniform(1e-9, 1.0, n)
    x0 -= np.maximum(cx - (lam - gap_x), 0.0)[:, None] * e
    gap = rng.uniform(1e-6, 2.0, n)
    y -= (cy - lam + gap)[:, None] * e

    y_l = y - 2.0 * (np.einsum("ij,ij->i", y, e) - lam)[:, None] * e
    d1 = np.linalg.norm(x0 - y, axis=1)
    d2 = np.linalg.norm(x0 - y_l, axis=1)
    keep = d1 > 1e-12
    kap = spec.kernel(d1[keep]) - spec.kernel(d2[keep])
    failures = int(np.count_nonzero(kap <= 0.0))

    # boundary fixed point: kappa must vanish to round-off
    e0 = np.zeros(N)
    e0[0] = 1.0
    plane = PlaneGeometry(tuple(e0), -0.25)
    boundary = check_kernel_monotone(spec, plane, -0.5 * e0, -0.25 * e0)
    if not boundary.boundary or boundary.kappa != 0.0:
        failures += 1

    return SuiteReport("kernel_monotone", failures == 0, int(keep.sum()), failures,
                       float(np.min(kap)), 0.0, seed,
                       {"boundary_kappa": boundary.kappa})


def run_gprime_suite(m: float, p_plus: float, n: int = 100_000,
                     seed: int = 0) -> SuiteReport:
    """n samples of |t0| in (0, m) and 1 - 1/ln(m) <= p1 <= p2 <= p_plus;
    the exponent-comparison derivative must be nonnegative.

    Callers must pass the same m as the exponent spec in use: the lower
    bound on p is tied to m through the decreasing window of
    h(t) = (t-1)|t0|^(t-2).
    """
    _require_samples(n)
    if not 0.0 < m < 1.0:
        raise PreconditionError("m must lie in (0,1)")
    p_floor = 1.0 - 1.0 / math.log(m)
    if p_plus < p_floor:
        raise PreconditionError("p_plus below the m-tied lower bound")
    rng = np.random.default_rng(seed)
    t0 = rng.uniform(-m, m, n)
    p1 = rng.uniform(p_floor, p_plus, n)
    p2 = rng.uniform(p1, p_plus)

    def chunk(t0, p1, p2):
        g = gprime_margin(np.where(t0 == 0.0, m / 2.0, t0), p1, p2)
        return g < -1e-12 * np.maximum(1.0, np.abs(g)), g, 0.0

    failures, margin, _ = _chunked(chunk, n, t0, p1, p2)
    return SuiteReport("gprime_sign", failures == 0, n, failures, margin, 0.0, seed,
                       {"m": m, "p_floor": p_floor, "p_plus": p_plus})


def certify_lemmas(spec: ExponentSpec, seed: int = 0,
                   n_mean_value: int = 100_000, n_kernel: int = 10_000,
                   n_gprime: int = 100_000) -> dict:
    """Run all lemma suites for one spec; returns a JSON-ready report."""
    ss = np.random.SeedSequence(seed).spawn(4)
    seeds = [int(s.generate_state(1)[0]) % (2 ** 31) for s in ss]
    mv = run_mean_value_suite(n_mean_value, seeds[0], (2.0, max(6.0, spec.p_plus)))
    km = run_kernel_monotone_suite(spec, n_kernel, seeds[1])
    gp = run_gprime_suite(spec.m_bound, max(spec.p_plus, 6.0), n_gprime, seeds[2])
    x_probe = np.zeros(spec.dimension)
    x_probe[0] = 2.0
    cx = check_cx_positive(spec, x_probe, rng=np.random.default_rng(seeds[3]))
    passed = mv.passed and km.passed and gp.passed and cx.positive
    return {
        "passed": bool(passed),
        "seed": seed,
        "suites": [asdict(mv), asdict(km), asdict(gp)],
        "cx_infimum": asdict(cx),
    }
