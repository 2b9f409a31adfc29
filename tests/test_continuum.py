"""Continuum references: the lab's operator against closed forms.

For a constant p = 2 the operator is the fractional Laplacian without its
normalising constant, L u(x) = PV int (u(x) - u(y)) |x - y|^(-N-2s) dy, and

    L (1 - |x|^2)_+^s = pi^(1 + N/2) / (sin(pi s) Gamma(N/2))  for |x| < 1

(Getoor 1961; Dyda, Fract. Calc. Appl. Anal. 15, 2012).  A reflection is an
isometry, so through a view L(u_lambda)(x) = (L u)(x^lambda) takes the same
constant wherever |x^lambda| < 1.

The gate is a ratchet.  Per band of |x| (of x^lambda under a view) each case
pins the largest relative error measured at commit 13e75d2, rounded up at
the second significant digit.  An accuracy change may tighten a bound; none
may loosen one.  Bands whose error was 0.1 or more there (the profile is
only C^{0,s} at the sphere) are printed, not gated, with that error beside
them below.
"""

import math

import numpy as np
import pytest

import fracvexp as fx
from fracvexp.ball_solver import bump_profile, interior_mask

BANDS = (0.0, 0.5, 0.8, 0.9, 1.0)

#: name -> (dimension, nodes per axis, s, tail_tolerance, view plane (e, lambda),
#: bound per band); None marks a band that is reported, not gated
CASES = {
    "1d_n201_s0.3": (1, 201, 0.3, None, None, (9.4e-3, 5.7e-3, 9.6e-3, None)),   # 0.49
    "1d_n201_s0.5": (1, 201, 0.5, None, None, (6.3e-3, 1.5e-2, 8.8e-2, None)),   # 1.5
    "2d_n21_s0.5": (2, 21, 0.5, None, None, (4.3e-2, None, None, None)),         # 0.25, 1.4, 0.90
    # the default tolerance puts r_eff past R_EFF_CAP at s = 0.3 in 2-d
    "2d_n21_s0.3": (2, 21, 0.3, 1e-6, None, (7.6e-3, 4.1e-2, None, None)),       # 0.31, 0.21
    # on the Omega nodes (half-space and ball) of a plane; no mirror image has |x| > 0.9
    "2d_n21_s0.5_axis_view": (2, 21, 0.5, None, ((1.0, 0.0), -0.5),
                              (1.8e-2, None, None, None)),                       # 0.12, 0.86
    "2d_n21_s0.5_oblique_view": (2, 21, 0.5, None, ((0.6, 0.8), -0.3),
                                 (5.8e-3, None, None, None)),                    # 0.12, 0.14
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
