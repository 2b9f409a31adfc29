"""Continuum references: the lab's operator and solve against closed forms.

For a constant p = 2 the operator is the fractional Laplacian without its
normalising constant, L u(x) = PV int (u(x) - u(y)) |x - y|^(-N-2s) dy, and

    L (1 - |x|^2)_+^s = pi^(1 + N/2) / (sin(pi s) Gamma(N/2))  for |x| < 1

(Getoor 1961; Dyda, Fract. Calc. Appl. Anal. 15, 2012).  A reflection is an
isometry, so through a view L(u_lambda)(x) = (L u)(x^lambda) takes the same
constant wherever |x^lambda| < 1.  Two more references follow from it:

* Half-space, every constant p > 1: x_+^s is (s,p)-harmonic on (0, inf)
  (Iannizzotto, Mosconi & Squassina, Rev. Mat. Iberoam. 32, 2016), so L u
  vanishes there.  Its error is read against x^(-s)/(s p), the integral over
  y < 0 alone, which the rest of the line cancels.
* Torsion, p = 2: L u = 1 in the unit ball with u = 0 outside is solved by
  u = gamma (1 - |x|^2)_+^s, gamma = sin(pi s) Gamma(N/2) / pi^(1 + N/2).
  The solver's sup error to it measures the whole discrete pipeline.

The gate is a ratchet.  Per band of |x| (of x^lambda under a view) each case
pins the largest relative error measured at commit 13e75d2, rounded up at
the second significant digit; the half-space and torsion bounds were
measured the same way at commit c94006e.  An accuracy change may tighten a
bound; none may loosen one.  Bands whose error was 0.1 or more there (the
profile is only C^{0,s} at the sphere, x_+^s at the origin) are printed,
not gated, with that error beside them below.  The ball and torsion bounds
that improved were tightened, and the ball's reported errors re-measured, on
top of commit edbf08c, once an operator value became the plain sum over the
graded levels with no extrapolated remainder; the torsion solve then took
one Newton step where it took 47, and its step count is gated.
"""

import math

import numpy as np
import pytest

import fracvexp as fx
from fracvexp.ball_solver import MANUFACTURED, ProblemSpec, bump_profile, interior_mask, solve

BANDS = (0.0, 0.5, 0.8, 0.9, 1.0)

#: name -> (dimension, nodes per axis, s, tail_tolerance, view plane (e, lambda),
#: bound per band); None marks a band that is reported, not gated
CASES = {
    "1d_n201_s0.3": (1, 201, 0.3, None, None, (9.4e-3, 5.6e-3, 9.5e-3, None)),   # 0.42
    "1d_n201_s0.5": (1, 201, 0.5, None, None, (6.2e-3, 9.1e-3, 1.9e-2, None)),   # 1.2
    "2d_n21_s0.5": (2, 21, 0.5, None, None, (3.8e-2, None, None, None)),         # 0.25, 1.4, 0.90
    # the default tolerance puts r_eff past R_EFF_CAP at s = 0.3 in 2-d
    "2d_n21_s0.3": (2, 21, 0.3, 1e-6, None, (7.4e-3, 4.0e-2, None, None)),       # 0.30, 0.19
    # on the Omega nodes (half-space and ball) of a plane; no mirror image has |x| > 0.9
    "2d_n21_s0.5_axis_view": (2, 21, 0.5, None, ((1.0, 0.0), -0.5),
                              (1.8e-2, None, None, None)),                       # 0.12, 0.86
    "2d_n21_s0.5_oblique_view": (2, 21, 0.5, None, ((0.6, 0.8), -0.3),
                                 (5.7e-3, None, None, None)),                    # 0.12, 0.14
}


@pytest.mark.parametrize("name", list(CASES))
def test_ball_profile_meets_the_closed_form(name):
    dim, n, s, tol, plane, bounds = CASES[name]
    spec = fx.make_spec("constant", dim, s, 0.5, value=2.0)
    u = fx.SampledFunction.from_function(bump_profile(1.0, s), 1.5, n, dim)
    cfg = fx.QuadratureConfig() if tol is None else fx.QuadratureConfig(tail_tolerance=tol)
    pts = u.nodes()[interior_mask(u)]
    w, x = u, pts
    if plane is not None:
        plane = fx.PlaneGeometry(*plane)
        pts = pts[plane.in_halfspace(pts)]
        w, x = fx.ReflectedFunction(u, plane), plane.reflect(pts)
    exact = math.pi ** (1 + dim / 2) / (math.sin(math.pi * s) * math.gamma(dim / 2))
    err = np.abs(fx.eval_plap_field(spec, w, pts, cfg) / exact - 1.0)
    r = np.linalg.norm(x, axis=1)
    assert np.all(r < 1.0), name
    for lo, hi, bound in zip(BANDS, BANDS[1:], bounds):
        band = (r >= lo) & (r < hi)
        worst = float(np.max(err[band], initial=0.0))
        print(f"{name}: |x| in [{lo}, {hi}), {band.sum()} nodes, max relative error {worst:.2g}"
              + ("" if bound is None else f" (bound {bound:g})"))
        if bound is not None:
            assert band.any() and worst <= bound, (name, lo, hi, worst)


HALF_SPACE_BANDS = (0.0, 0.05, 0.2, 0.6, 1.2)

#: p -> bound per band of x on max |L u| s p x^s; None marks a reported band
HALF_SPACE = {
    2.0: (None, None, 6.5e-3, 9.2e-3),   # 3.9, 4.8e-2
    3.0: (None, None, 2.4e-2, 2.8e-2),   # 4.0, 8.0e-2
}


@pytest.mark.parametrize("p", list(HALF_SPACE))
def test_half_space_profile_is_harmonic(p):
    s = 0.5

    def half(pts):
        return np.maximum(pts[:, 0], 0.0) ** s

    spec = fx.make_spec("constant", 1, s, 0.5, value=p)
    u = fx.SampledFunction.from_function(half, 1.5, 201, 1, exterior_rule=half)
    x = u.nodes()[:, 0]
    pts = u.nodes()[(x > 0.0) & (x <= HALF_SPACE_BANDS[-1])]
    # the exterior grows like |y|^s, so the tail is certified at a far radius
    cfg = fx.QuadratureConfig(tail_radius=1e13, tail_tolerance=1e-6)
    err = np.abs(fx.eval_plap_field(spec, u, pts, cfg)) * s * p * pts[:, 0] ** s
    for lo, hi, bound in zip(HALF_SPACE_BANDS, HALF_SPACE_BANDS[1:], HALF_SPACE[p]):
        band = (pts[:, 0] > lo) & (pts[:, 0] <= hi)
        worst = float(np.max(err[band]))
        print(f"half-space p={p:g}: x in ({lo}, {hi}], {band.sum()} nodes, max scaled error "
              f"{worst:.3g}" + ("" if bound is None else f" (bound {bound:g})"))
        if bound is not None:
            assert worst <= bound, (p, lo, hi, worst)


def test_torsion_solve_meets_the_closed_form():
    # h = 1 on the interior nodes through the manufactured right-hand side
    s = 0.5
    spec = fx.make_spec("constant", 1, s, 0.5, value=2.0)
    guess = fx.SampledFunction.from_function(bump_profile(0.5, s), 1.5, 101, 1)
    problem = ProblemSpec(spec, rhs_mode=MANUFACTURED,
                          h_field=interior_mask(guess).astype(float))
    report = solve(problem, guess, tol_res=1e-10)
    gamma = math.sin(math.pi * s) * math.gamma(0.5) / math.pi ** 1.5
    nodes = guess.nodes()
    err = np.abs(report.solution.values - bump_profile(gamma, s)(nodes))
    inner = np.abs(nodes[:, 0]) < 0.8
    print(f"torsion: {report.iterations} Newton steps, sup error {err.max():.3g}, "
          f"{err[inner].max():.3g} on |x| < 0.8")
    assert report.converged, report.message
    assert report.iterations <= 3, report.iterations
    assert err.max() <= 4.4e-3 and err[inner].max() <= 2.5e-3, (err.max(), err[inner].max())
