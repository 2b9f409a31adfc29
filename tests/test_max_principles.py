import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracvexp as fx
from fracvexp import ball_solver as bs
from fracvexp import max_principles as mp
from fracvexp import moving_planes as mvp
from fracvexp.grids import ReflectedFunction
from fracvexp.moving_planes import sweep_directions

unit2 = st.floats(-2.0, 2.0)


@pytest.fixture(scope="module")
def star(spec_model, qcfg):
    u_star, _ = bs.manufacture(spec_model, n=201, amplitude=0.5, cfg=qcfg)
    return u_star


@pytest.fixture(scope="module")
def star_2d(spec_2d, qcfg):
    u_star, _ = bs.manufacture(spec_2d, n=15, amplitude=0.5, cfg=qcfg)
    return u_star


def bump_1d(center=0.0, plateau=0.0):
    """0.4 (1 - ((x - center)^2 - plateau^2) / (1 - plateau^2))^2, clipped to [0, 0.4]:
    a bump of height 0.4 on |x - center| <= plateau, 0 past |x - center| = 1."""
    def fn(p):
        t = ((p[:, 0] - center) ** 2 - plateau ** 2) / (1.0 - plateau ** 2)
        return 0.4 * np.clip(1.0 - t, 0.0, 1.0) ** 2
    return fx.SampledFunction.from_function(fn, 1.5, 201, 1)


def pointwise_gamma(spec, u, plane, x, cfg):
    """The operator difference at one point, each side from its own plan."""
    return (fx.eval_plap(spec, ReflectedFunction(u, plane), x, cfg)
            - fx.eval_plap(spec, u, x, cfg))


class TestReflect:
    def test_formula(self):
        plane = fx.PlaneGeometry((1.0, 0.0), -0.1)
        out = plane.reflect(np.array([-0.3, 0.2]))
        np.testing.assert_allclose(out, [0.1, 0.2], atol=1e-15)

    def test_fixed_point(self):
        plane = fx.PlaneGeometry((0.0, 1.0), 0.4)
        x = np.array([1.3, 0.4])
        np.testing.assert_allclose(plane.reflect(x), x, atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(unit2, unit2, unit2, unit2, st.floats(-1, 1))
    def test_involution_and_isometry(self, x0, x1, y0, y1, lam):
        e = np.array([0.6, 0.8])
        plane = fx.PlaneGeometry(tuple(e), lam)
        x, y = np.array([x0, x1]), np.array([y0, y1])
        np.testing.assert_allclose(plane.reflect(plane.reflect(x)), x, atol=1e-12)
        d1 = np.linalg.norm(plane.reflect(x) - plane.reflect(y))
        assert d1 == pytest.approx(np.linalg.norm(x - y), abs=1e-12)

    def test_node_alone_equals_node_in_batch(self):
        # <x, e> is summed per row, so a point reflects to the same bits alone
        # as inside any batch (a BLAS x @ e rounds by batch size)
        u = fx.SampledFunction(np.zeros(15 * 15), (15, 15), 1.5)
        nodes = u.nodes()
        for e in sweep_directions(2, 8, seed=7):
            plane = fx.PlaneGeometry(tuple(e), -0.3)
            batch = plane.reflect(nodes)
            alone = np.array([plane.reflect(x[None, :])[0] for x in nodes])
            np.testing.assert_array_equal(alone, batch)
            np.testing.assert_array_equal([plane.reflect(x) for x in nodes], batch)
            np.testing.assert_array_equal([plane.coord(x) for x in nodes], plane.coord(nodes))

    def test_unit_norm_required(self):
        with pytest.raises(fx.PreconditionError):
            fx.PlaneGeometry((1.0, 1.0), 0.0)

    @pytest.mark.parametrize("direction", [(np.nan,), (np.nan, 0.0), (np.inf, 0.0)])
    def test_non_finite_direction_rejected(self, direction):
        with pytest.raises(fx.PreconditionError):
            fx.PlaneGeometry(direction, 0.0)

    @pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
    def test_non_finite_offset_rejected(self, offset):
        # a NaN offset puts no node in the half-space, so a check would read 'holds'
        with pytest.raises(fx.PreconditionError):
            fx.PlaneGeometry((1.0,), offset)

    @pytest.mark.parametrize("direction, x", [
        ((1.0,), np.zeros((4, 2))),       # 2-d points, 1-d plane
        ((0.6, 0.8), np.zeros((4, 1))),   # 1-d points, 2-d plane
        ((1.0, 0.0, 0.0), np.zeros(2)),   # one 2-d point, 3-d plane
        ((1.0,), 0.0),                    # no coordinate axis at all
    ])
    def test_point_dimension_must_match(self, direction, x):
        # broadcasting would otherwise answer for points of another dimension
        plane = fx.PlaneGeometry(direction, 0.1)
        for call in (plane.coord, plane.reflect, plane.in_halfspace):
            with pytest.raises(fx.PreconditionError):
                call(x)


class TestWLambda:
    def test_even_function_vanishes(self, u_bump_1d):
        plane = fx.axis_plane(1, 0.0)
        w = mp.reflection_difference(u_bump_1d, plane.e, plane.offset, np.array([[0.4]]))
        assert w[0] == pytest.approx(0.0, abs=1e-12)

    def test_affine_case(self):
        u = fx.SampledFunction.from_function(lambda p: p[:, 0], extent=1.5, n=201,
                                             dim=1, exterior_rule="zero_outside_box")
        plane = fx.axis_plane(1, -0.2)
        for x in (-0.5, -0.9, -0.3):
            # u(x) = x: w(x) = (2 lam - x) - x = 2(lam - x)
            w = mp.reflection_difference(u, plane.e, plane.offset, np.array([[x]]))
            assert w[0] == pytest.approx(2 * (-0.2 - x), abs=1e-8)

    def test_antisymmetry(self, u_bump_1d):
        plane = fx.axis_plane(1, -0.3)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1.4, 1.4, (50, 1))
        w = mp.reflection_difference(u_bump_1d, plane.e, plane.offset, pts)
        w_ref = mp.reflection_difference(u_bump_1d, plane.e, plane.offset, plane.reflect(pts))
        np.testing.assert_allclose(w + w_ref, 0.0, atol=1e-8)


class TestStrongMP:
    def test_nonneg_bump_holds(self, spec_1d, qcfg):
        u = fx.SampledFunction.from_function(
            lambda p: np.maximum(0.0, 1.0 - p[:, 0] ** 2) ** 2, 1.5, 101, 1)
        mask = bs.interior_mask(u)
        pts = u.nodes()[mask]
        field = fx.eval_plap_field(spec_1d, u, pts, qcfg)
        auto = np.zeros(u.values.size, bool)
        auto[np.nonzero(mask)[0]] = field >= -mp.HYPOTHESIS_TOL
        rep = mp.check_strong_mp(spec_1d, u, auto, qcfg)
        assert rep.verdict == mp.HOLDS

    def test_zero_function_degenerate(self, spec_1d, qcfg):
        u = fx.SampledFunction(np.zeros(101), (101,), 1.5)
        rep = mp.check_strong_mp(spec_1d, u, bs.interior_mask(u), qcfg)
        assert rep.verdict == mp.HOLDS
        assert rep.diagnostics.get("vanishes_everywhere")

    def test_negative_minimum_violated_with_proof_diagnostic(self, spec_1d, qcfg):
        nodes = np.linspace(-1.5, 1.5, 101)
        base = np.maximum(0.0, 1.0 - nodes ** 2) ** 2
        dip = base - 1.3 * np.exp(-8 * nodes ** 2) * np.maximum(0.0, 1.0 - nodes ** 2)
        u = fx.SampledFunction(np.where(np.abs(nodes) < 1, dip, 0.0), (101,), 1.5)
        rep = mp.check_strong_mp(spec_1d, u, bs.interior_mask(u), qcfg)
        assert rep.verdict == mp.VIOLATED
        assert rep.witness_point is not None and rep.witness_value < 0
        assert rep.diagnostics["eval_at_min"] < 0.0  # the proof's contradiction

    def test_precondition_negative_outside(self, spec_1d, qcfg):
        vals = np.zeros(101)
        vals[0] = -0.5
        u = fx.SampledFunction(vals, (101,), 1.5, exterior_rule="zero_outside_box")
        mask = bs.interior_mask(u)
        with pytest.raises(fx.PreconditionError):
            mp.check_strong_mp(spec_1d, u, mask, qcfg)

    def test_hypothesis_failure_is_inconclusive(self, spec_1d, qcfg):
        # positive bump, full-ball mask: the operator changes sign inside,
        # so the hypothesis set is smaller than the mask
        u = fx.SampledFunction.from_function(
            lambda p: np.maximum(0.0, 1.0 - p[:, 0] ** 2) ** 2, 1.5, 101, 1)
        rep = mp.check_strong_mp(spec_1d, u, bs.interior_mask(u), qcfg)
        assert rep.verdict in (mp.HOLDS, mp.INCONCLUSIVE)


    def test_box_smaller_than_the_ball(self, spec_1d, qcfg):
        # the operator pass covers Omega and the ball nodes strictly inside the
        # box; the box-edge nodes at +-0.8 lie in the ball but cannot be evaluated
        u = fx.SampledFunction.from_function(
            lambda p: np.maximum(0.0, 0.64 - p[:, 0] ** 2) ** 2, 0.8, 41, 1,
            exterior_rule="zero_outside_box")
        rep = mp.check_strong_mp(spec_1d, u, u.inside_box(u.nodes(), strict=True), qcfg)
        assert rep.verdict in (mp.HOLDS, mp.INCONCLUSIVE)

    def test_empty_mask_holds_vacuously(self, spec_1d, qcfg):
        u = bump_1d()
        rep = mp.check_strong_mp(spec_1d, u, np.zeros(u.values.size, bool), qcfg)
        assert rep.verdict == mp.HOLDS and rep.diagnostics["min_u"] is None

    def test_interior_zero_of_a_nonzero_u_is_violated(self, spec_1d, qcfg):
        # Omega reaches past the support, where u = 0.  There the operator is
        # negative, so the hypothesis tolerance is opened to let the degenerate
        # branch run: a zero in Omega with u > 0 elsewhere contradicts the MP
        u = bump_1d()
        mask = np.abs(u.nodes()[:, 0]) < 1.2
        rep = mp.check_strong_mp(spec_1d, u, mask, qcfg, hyp_tol=1e3)
        assert rep.verdict == mp.VIOLATED
        assert rep.diagnostics["reason"] == "interior zero but u does not vanish everywhere"
        assert rep.witness_value > mp.CONCLUSION_TOL


class TestAntisymMP:
    def test_degenerate_symmetric(self, spec_model, star, qcfg):
        rep = mp.check_antisym_mp(spec_model, star, fx.axis_plane(1, 0.0),
                                  m_bound=0.7, cfg=qcfg)
        assert rep.verdict == mp.HOLDS
        assert rep.diagnostics.get("w_vanishes")

    def test_manufactured_conclusion_holds(self, spec_model, star, qcfg):
        # w >= 0 holds for the radial bump; the operator-difference
        # hypothesis genuinely fails near the support edge, so the faithful
        # verdict is 'inconclusive' with the conclusion recorded
        rep = mp.check_antisym_mp(spec_model, star, fx.axis_plane(1, -0.5),
                                  m_bound=0.7, cfg=qcfg)
        assert rep.verdict in (mp.HOLDS, mp.INCONCLUSIVE)
        assert rep.diagnostics["min_w"] >= -mp.CONCLUSION_TOL

    def test_constructed_violation(self, spec_model, star, qcfg):
        nodes = star.nodes()
        pert = 0.05 * np.sin(3 * nodes[:, 0]) * np.maximum(0.0, 1 - nodes[:, 0] ** 2)
        asym = star.with_values(np.clip(star.values - pert, 0.0, 0.55))
        rep = mp.check_antisym_mp(spec_model, asym, fx.axis_plane(1, -0.1),
                                  m_bound=0.7, cfg=qcfg)
        assert rep.verdict == mp.VIOLATED
        assert rep.witness_value < 0
        assert rep.diagnostics["gamma"] < 0.0  # reproduces the strict inequality

    @pytest.mark.parametrize("radius", [float("nan"), -1.0, 0.0])
    def test_bad_ball_radius_rejected(self, spec_model, star, qcfg, radius):
        # Omega would be empty, and the verdict 'holds' with min_w_omega inf
        with pytest.raises(fx.PreconditionError, match="ball_radius"):
            mp.check_antisym_mp(spec_model, star, fx.axis_plane(1, -0.3), ball_radius=radius,
                                m_bound=0.7, cfg=qcfg)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("violated", [False, True])
    def test_gamma_is_the_pointwise_difference(self, request, dim, violated, qcfg):
        # the batched difference at the Omega-minimizer equals the
        # single-point evaluations bit for bit, on either path
        spec = request.getfixturevalue("spec_model" if dim == 1 else "spec_2d")
        u = request.getfixturevalue("star" if dim == 1 else "star_2d")
        plane = fx.axis_plane(dim, -0.1 if violated else -0.5)
        if violated:
            nodes = u.nodes()
            pert = 0.05 * np.sin(3 * nodes[:, 0]) * np.maximum(0.0, 1 - np.sum(nodes ** 2, 1))
            u = u.with_values(np.clip(u.values - pert, 0.0, 0.55))
        rep = mp.check_antisym_mp(spec, u, plane, m_bound=0.7, cfg=qcfg)
        assert (rep.verdict == mp.VIOLATED) == violated
        assert ("min_delta" in rep.diagnostics) != violated  # which path ran
        x = np.array(rep.diagnostics["omega_minimizer"])
        assert rep.diagnostics["gamma"] == pointwise_gamma(spec, u, plane, x, qcfg)

    def test_u_vanishing_on_omega_is_refused(self, spec_model, star, qcfg):
        # a ball of radius 1.2 takes in nodes past the support, where u = 0
        with pytest.raises(fx.PreconditionError, match="positive on the ball part"):
            mp.check_antisym_mp(spec_model, star, fx.axis_plane(1, -0.5), ball_radius=1.2,
                                m_bound=0.7, cfg=qcfg)

    def test_negative_w_outside_the_ball_is_refused(self, spec_model, qcfg):
        # the bump peaks at x = -0.3, so w < 0 at x = -0.5, outside the ball of radius 0.3
        with pytest.raises(fx.PreconditionError, match="outside the ball"):
            mp.check_antisym_mp(spec_model, bump_1d(center=-0.3), fx.axis_plane(1, -0.1),
                                ball_radius=0.3, cfg=qcfg)

    def test_interior_zero_of_w_is_violated(self, spec_model, qcfg):
        # on the plateau |x| <= 0.6 both x and its mirror image read 0.4, so w = 0
        # on Omega nodes in (-0.6, -0.3), and w > 0 nearer the support edge; at
        # lambda = -0.3 every mirror image is a node, so w carries no
        # interpolation error.  The hypothesis tolerance is opened to let the
        # degenerate branch run
        rep = mp.check_antisym_mp(spec_model, bump_1d(plateau=0.6), fx.axis_plane(1, -0.3),
                                  cfg=qcfg, hyp_tol=1e3)
        assert rep.verdict == mp.VIOLATED
        assert rep.diagnostics["reason"] == "interior zero of w but w not identically zero"
        assert abs(rep.diagnostics["min_w_omega"]) <= mp.CONCLUSION_TOL
        assert rep.witness_value > mp.CONCLUSION_TOL

    def test_range_precondition(self, spec_model, star, qcfg):
        with pytest.raises(fx.PreconditionError):
            mp.check_antisym_mp(spec_model, star, fx.axis_plane(1, -0.5),
                                m_bound=0.3, cfg=qcfg)  # sup u = 0.5 >= m


class TestJSplit:
    def test_fold_consistency(self, spec_model, qcfg):
        u_star, _ = bs.manufacture(spec_model, n=201, amplitude=0.5, cfg=qcfg)
        plane = fx.axis_plane(1, -0.5)
        x0 = np.array([-0.72])
        j1, j2 = mp.j1_j2_split(spec_model, u_star, plane, x0, qcfg)
        view = ReflectedFunction(u_star, plane)
        gamma = (fx.eval_plap(spec_model, view, x0, qcfg)
                 - fx.eval_plap(spec_model, u_star, x0, qcfg))
        scale = abs(j1) + abs(j2) + abs(gamma)
        assert (j1 + j2) == pytest.approx(gamma, abs=2e-2 * scale)

    def test_halfspace_precondition(self, spec_model, qcfg):
        u = fx.SampledFunction(np.zeros(101), (101,), 1.5)
        with pytest.raises(fx.PreconditionError):
            mp.j1_j2_split(spec_model, u, fx.axis_plane(1, -0.5), [0.0], qcfg)


class TestBoundaryProbe:
    def test_negative_ratios_with_margin(self, spec_model, star, qcfg):
        plane = fx.axis_plane(1, -0.5)
        xs = [np.array([-0.5 - 2.0 ** -k]) for k in range(3, 11)]
        rep = mp.boundary_estimate_probe(spec_model, star, [plane] * 8, xs, qcfg)
        assert rep.ok and rep.verdict == mp.HOLDS
        assert all(r < 0 for r in rep.ratios)
        assert rep.margin > 0

    def test_ratios_are_the_pointwise_differences(self, spec_model, star, qcfg):
        # two interleaved planes: each plane's points are evaluated together,
        # and every ratio still equals its point's own evaluation bit for bit
        a, b = fx.axis_plane(1, -0.5), fx.axis_plane(1, -0.45)
        planes = [a, b, a, b, a, b]
        xs = [np.array([pl.offset - 2.0 ** -k]) for pl, k in zip(planes, range(3, 9))]
        rep = mp.boundary_estimate_probe(spec_model, star, planes, xs, qcfg, window=2)
        assert len(rep.ratios) == len(planes)
        for pl, x, d, r in zip(planes, xs, rep.deltas, rep.ratios):
            assert r == pointwise_gamma(spec_model, star, pl, x, qcfg) / d

    def test_zero_function_refused(self, spec_model, qcfg):
        u = fx.SampledFunction(np.zeros(201), (201,), 1.5)
        plane = fx.axis_plane(1, -0.5)
        xs = [np.array([-0.5 - 2.0 ** -k]) for k in range(3, 6)]
        rep = mp.boundary_estimate_probe(spec_model, u, [plane] * 3, xs, qcfg)
        assert rep.verdict == mp.INCONCLUSIVE

    def test_deltas_must_decrease(self, spec_model, star, qcfg):
        plane = fx.axis_plane(1, -0.5)
        xs = [np.array([-0.6]), np.array([-0.7])]  # increasing delta
        with pytest.raises(fx.PreconditionError):
            mp.boundary_estimate_probe(spec_model, star, [plane] * 2, xs, qcfg)

    def test_sequences_of_different_lengths_are_refused(self, spec_model, star, qcfg):
        plane = fx.axis_plane(1, -0.5)
        with pytest.raises(fx.PreconditionError, match="must match"):
            mp.boundary_estimate_probe(spec_model, star, [plane] * 2, [np.array([-0.6])], qcfg)

    def test_no_ball_half_space_nodes_is_inconclusive(self, spec_model, star, qcfg):
        plane = fx.axis_plane(1, -1.2)  # the half-space x < -1.2 misses the unit ball
        xs = [np.array([-1.2 - 2.0 ** -k]) for k in range(3, 6)]
        rep = mp.boundary_estimate_probe(spec_model, star, [plane] * 3, xs, qcfg)
        assert rep.verdict == mp.INCONCLUSIVE and not rep.ok
        assert rep.diagnostics["reason"] == "no ball half-space nodes for the limiting plane"

    def test_zero_delta_is_numeric_error(self, spec_model, star, qcfg):
        plane = fx.axis_plane(1, -0.5)
        with pytest.raises(fx.NumericError):
            mp.boundary_estimate_probe(spec_model, star, [plane], [np.array([-0.5])], qcfg)


class TestMPReportInvariant:
    def test_witness_iff_violated(self):
        with pytest.raises(fx.PreconditionError):
            mp.MPReport(mp.HOLDS, witness_point=(0.0,))
        with pytest.raises(fx.PreconditionError):
            mp.MPReport(mp.VIOLATED)


@pytest.mark.parametrize("dim", [1, 2])
def test_unit_ball_masks_keep_the_norm_test(monkeypatch, dim, request, qcfg):
    """Every reader of the unit ball takes the nodes with |x| < 1 as
    `np.linalg.norm(nodes, axis=1) < 1.0` does, on a grid (extent 1.5, n = 7)
    with nodes exactly on |x| = 1."""
    spec = request.getfixturevalue("spec_model" if dim == 1 else "spec_2d")
    u = fx.SampledFunction.from_function(lambda p: np.ones(len(p)), 1.5, 7, dim)
    nodes = u.nodes()
    ball = np.linalg.norm(nodes, axis=1) < 1.0
    assert np.any(np.isclose(np.linalg.norm(nodes, axis=1), 1.0) & ~ball)
    np.testing.assert_array_equal(bs.interior_mask(u), ball)
    np.testing.assert_array_equal(u.values, ball.astype(float))  # from_function

    seen = {}

    def minima(u, e, offsets, nodes, coord, ball_mask):
        seen["sweep"] = ball_mask
        return np.zeros(len(offsets))

    monkeypatch.setattr(mvp, "_plane_minima", minima)
    mvp.sweep(u, np.eye(dim)[0], [-1.0, 0.0])
    np.testing.assert_array_equal(seen["sweep"], ball)

    def field(spec, u, pts, cfg):
        seen["strong"] = pts
        return np.zeros(len(pts))

    monkeypatch.setattr(mp, "eval_plap_field", field)
    corner = np.zeros(u.values.size, bool)
    corner[0] = True
    mp.check_strong_mp(spec, u, corner, qcfg)
    np.testing.assert_array_equal(
        seen["strong"], nodes[corner | (ball & np.all(np.abs(nodes) < 1.5, axis=1))])

    def difference(u, e, offset, pts):
        seen["probe"] = pts
        return -np.ones(len(pts))

    monkeypatch.setattr(mp, "reflection_difference", difference)
    plane = fx.axis_plane(dim, 0.0)
    mp.boundary_estimate_probe(spec, u, [plane], [-0.25 * plane.e], qcfg)
    np.testing.assert_array_equal(seen["probe"], nodes[plane.in_halfspace(nodes) & ball])
