import math

import numpy as np
import pytest

import fracvexp as fx
from fracvexp import ball_solver as bs
from fracvexp import moving_planes as mvp
from fracvexp.max_principles import reflection_difference


@pytest.fixture(scope="module")
def star(spec_model, qcfg):
    u_star, _ = bs.manufacture(spec_model, n=201, amplitude=0.5, cfg=qcfg)
    return u_star


class TestSweep:
    def test_exact_radial_profile(self, star):
        rep = mvp.sweep(star, [1.0])
        assert rep.symmetric_verdict and rep.monotone_verdict
        assert rep.lambda0_estimate >= -rep.tol_lambda
        assert min(rep.min_w) >= -1e-8

    def test_translated_profile_fails(self):
        v = fx.SampledFunction.from_function(
            lambda p: 0.5 * np.maximum(0.0, 1.0 - (p[:, 0] - 0.2) ** 2) ** 0.5,
            1.5, 201, 1, exterior_rule="zero_outside_box")
        reports = [mvp.sweep(v, d) for d in ([1.0], [-1.0])]
        assert not all(r.symmetric_verdict for r in reports)
        back = next(r for r in reports if r.direction == (-1.0,))
        assert back.lambda0_estimate == pytest.approx(-0.2, abs=2e-2)

    def test_zero_function_degenerate_pass(self):
        u = fx.SampledFunction(np.zeros(201), (201,), 1.5)
        rep = mvp.sweep(u, [1.0])
        assert rep.symmetric_verdict
        assert rep.lambda0_estimate == 0.0

    def test_lambda_grid_validation(self, star):
        # an empty grid, a single plane (no step to set tol_lambda from, so any
        # lambda0 read symmetric) and NaN offsets are rejected like bad orders
        for grid in ([0.0, -0.5], [-0.5, 0.5], [], [-0.5], [math.nan, 0.0]):
            with pytest.raises(fx.PreconditionError):
                mvp.sweep(star, [1.0], lambda_grid=grid)
        with pytest.raises(fx.PreconditionError):
            mvp.sweep(star, [1.0], lambda_grid=np.linspace(-1.0, 0.0, 41), refine=-3)

    @pytest.mark.parametrize("dim, mode, directions", [
        (1, "ball", [[1.0], [-1.0]]),
        (1, "whole-space", [[1.0], [-1.0]]),
        (2, "ball", [[-1.0, 0.0], [0.6, 0.8], [-0.8, -0.6]]),
        (2, "whole-space", [[1.0, 0.0], [0.0, -1.0]]),
    ])
    def test_batched_minima_match_per_plane(self, dim, mode, directions):
        # a translated bump violates symmetry, so in ball mode refined planes
        # are in the report; empty half-spaces must read inf on both paths
        n = 201 if dim == 1 else 31
        u = fx.SampledFunction.from_function(
            lambda p: 0.4 * np.exp(-6.0 * ((p - 0.2) ** 2).sum(1)), 1.5, n, dim,
            exterior_rule="zero_outside_box")
        nodes = u.nodes()
        grids = []
        for d in directions:
            rep = mvp.sweep(u, d, mode=mode, refine=7)
            e = np.asarray(rep.direction)
            expect = []
            for lam in rep.lambda_grid:
                plane = fx.PlaneGeometry(tuple(e), lam)
                sel = plane.in_halfspace(nodes)
                if mode == "ball":
                    sel &= np.linalg.norm(nodes, axis=1) < 1.0
                expect.append(np.min(reflection_difference(u, plane.e, plane.offset, nodes[sel]))
                              if sel.any() else np.inf)
            got = np.asarray(rep.min_w)
            np.testing.assert_array_equal(got, expect)
            grids.append(len(rep.lambda_grid))
            assert np.isinf(got[0])  # no node lies in either mode's first half-space
        if mode == "ball":
            assert max(grids) == 101 + 6  # the refinement batch ran

    def test_direction_consistency_2d(self, spec_2d, qcfg):
        # w at off-lattice reflected points carries the interpolation floor
        # of the 81^2 grid (~4e-5 with cubic stencils near the support edge),
        # so the minima tolerance is set above it
        u2 = fx.SampledFunction.from_function(
            lambda p: 0.5 * np.maximum(0.0, 1.0 - (p ** 2).sum(1)) ** 2,
            1.5, 81, 2, smoothness_hint=3)
        for d in mvp.sweep_directions(2, 8, seed=4):
            rep = mvp.sweep(u2, d, np.linspace(-1.0, 0.0, 41), tol=1e-4)
            assert rep.symmetric_verdict, d
            assert rep.lambda0_estimate >= -rep.tol_lambda

    def test_antisymmetry_of_w(self, star):
        plane = fx.axis_plane(1, -0.4)
        pts = np.linspace(-1.3, 1.3, 37)[:, None]
        w = reflection_difference(star, plane.e, plane.offset, pts)
        w_r = reflection_difference(star, plane.e, plane.offset, plane.reflect(pts))
        np.testing.assert_allclose(w + w_r, 0.0, atol=1e-8)

    def test_lambda0_rescan_consistency(self, star):
        rep = mvp.sweep(star, [-1.0])
        grid = np.asarray(rep.lambda_grid)
        mins = np.asarray(rep.min_w)
        sel = grid <= rep.lambda0_estimate
        assert np.all(mins[sel] >= -rep.tol)

    def test_whole_space_decay_certificate(self, spec_1d):
        u = fx.SampledFunction.from_function(
            lambda p: 0.4 * np.exp(-4.0 * p[:, 0] ** 2), 1.5, 201, 1,
            exterior_rule="zero_outside_box")
        rep = mvp.sweep(u, [1.0], np.linspace(-1.0, 0.0, 41), mode="whole-space")
        assert rep.decay_ok is False and rep.inconclusive
        u2 = fx.SampledFunction.from_function(
            lambda p: 0.4 * np.exp(-14.0 * p[:, 0] ** 2), 1.5, 201, 1,
            exterior_rule="zero_outside_box")
        rep2 = mvp.sweep(u2, [1.0], np.linspace(-1.0, 0.0, 41), mode="whole-space",
                         decay_tol=1e-6)
        assert rep2.decay_ok and not rep2.inconclusive


class TestRadialProfile:
    def test_star_passes(self, star):
        chk = mvp.radial_profile_check(star, [0.0], 1e-4)
        assert chk.passed and chk.max_violation <= 1e-12

    def test_tilted_fails_with_witness(self, star):
        nodes = star.nodes()[:, 0]
        tilt = star.values + 0.05 * nodes * np.maximum(0.0, 1.0 - nodes ** 2)
        chk = mvp.radial_profile_check(star.with_values(np.maximum(tilt, 0.0)), [0.0], 1e-4)
        assert not chk.passed
        assert chk.worst_pair is not None
        assert chk.shell_spread > 1e-4

    def test_center_inside_box(self, star):
        with pytest.raises(fx.PreconditionError):
            mvp.radial_profile_check(star, [2.0], 1e-4)


class TestDirections:
    def test_1d_alternating(self):
        d = mvp.sweep_directions(1, 8)
        assert d.shape == (8, 1)
        assert set(d[:, 0].tolist()) == {1.0, -1.0}

    def test_2d_unit_norm_seeded(self):
        a = mvp.sweep_directions(2, 8, seed=5)
        b = mvp.sweep_directions(2, 8, seed=5)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-14)

    @pytest.mark.parametrize("dim, count", [(1, 0), (2, 0), (1, -3)])
    def test_count_must_be_positive(self, dim, count):
        with pytest.raises(fx.PreconditionError):
            mvp.sweep_directions(dim, count)
