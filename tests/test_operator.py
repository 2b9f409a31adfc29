import dataclasses
import gc
import json
import math
import re
import tracemalloc
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from scipy import integrate

import fracvexp as fx
from fracvexp import _backend
from fracvexp._backend import _shift, apply_plan, jacobian
from fracvexp.ball_solver import bump_profile, interior_mask, manufacture
from fracvexp import quadrature
from fracvexp.quadrature import (_gauss_on, _legendre_rule, build_plan, directions,
                                 paired_nodes, truncation_radius)

from oracles import brute_force_plap, constant_p_plap


class TestFPower:
    def test_values(self):
        assert fx.f_power(2.0, 3.0) == 4.0
        assert fx.f_power(-2.0, 3.0) == -4.0
        assert fx.f_power(0.0, 2.7) == 0.0
        # vectorized, with f(0) = 0 also where |0|^(p-2) is infinite
        np.testing.assert_array_equal(
            fx.f_power(np.array([-2.0, 0.0, 2.0, 0.0]), np.array([3.0, 1.5, 3.0, 2.0])),
            [-4.0, 0.0, 4.0, 0.0])

    def test_exact_zeros_small_p_and_0d(self):
        # f(+-0) is +0.0 for every p, with no warning where 0 ** (p - 2) is
        # inf; p < 2 at t != 0 is the plain power; 0-d input gives a float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fx.f_power(np.array([0.0, -0.0, 0.0, -0.0, 0.25, -4.0]),
                             np.array([1.5, 1.5, 6.0, 2.0, 1.5, 1.5]))
            np.testing.assert_array_equal(got.view(np.int64),
                                          np.array([0.0, 0.0, 0.0, 0.0, 0.5, -2.0]).view(np.int64))
            for t in (np.array(-0.0), np.float64(0.0), -0.0):
                out = fx.f_power(t, np.float64(1.5))
                assert type(out) is float and math.copysign(1.0, out) == 1.0 and out == 0.0
        out = fx.f_power(np.array(-4.0), 1.5)
        assert type(out) is float and out == -2.0
        # a 0-d t against a vector of exponents broadcasts
        np.testing.assert_array_equal(fx.f_power(-0.0, [1.5, 2.0, 3.0]).view(np.int64), 0)
        np.testing.assert_array_equal(fx.f_power(np.array(2.0), [1.5, 3.0]), [2.0 ** 0.5, 4.0])

    def test_odd_and_increasing(self):
        ts = np.linspace(-2, 2, 41)
        vals = [fx.f_power(t, 3.3) for t in ts]
        assert np.all(np.diff(vals) > 0)
        for t in ts:
            assert fx.f_power(-t, 3.3) == -fx.f_power(t, 3.3)


class TestKernel:
    def test_closed_forms(self, const3_2d):
        c3 = fx.make_spec("constant", dimension=1, order=0.5, m=0.5, value=3.0)
        assert fx.kernel(c3, [0.0], [2.0]) == pytest.approx(2.0 ** -2.5, rel=1e-14)
        assert fx.kernel(c3, [0.0], [2.0]) == pytest.approx(0.176777, abs=1e-6)
        assert fx.kernel(const3_2d, [0.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_singularity(self, spec_1d):
        with pytest.raises(fx.NumericError):
            fx.kernel(spec_1d, [0.5], [0.5])

    def test_high_precision_cross_check(self):
        # sigmoid profile with m = e^-1 at distance 2, against 50-digit arithmetic
        spec = fx.make_spec("example_ii", dimension=1, order=0.5, m=math.exp(-1.0))
        got = fx.kernel(spec, [0.0], [2.0])
        with mpmath.workdps(50):
            q = 1 / (1 + mpmath.exp(-2)) + mpmath.mpf(3) / 2
            expected = mpmath.mpf(2) ** (-(1 + mpmath.mpf(1) / 2 * q))
        assert got == pytest.approx(float(expected), rel=1e-13)


class TestEvalPlapBasics:
    def test_constant_exactly_zero(self, spec_1d, qcfg):
        uc = fx.SampledFunction(np.full(101, 0.7), (101,), 1.5,
                                exterior_rule=lambda p: np.full(len(np.atleast_2d(p)), 0.7))
        node = uc.axis_nodes()[50]
        assert fx.eval_plap(spec_1d, uc, [node], qcfg) == 0.0

    def test_constant_rule_serializable(self, spec_1d, qcfg, tmp_path):
        uc = fx.SampledFunction(np.full(101, 0.7), (101,), 1.5,
                                exterior_rule="constant:0.7")
        node = uc.axis_nodes()[50]
        assert fx.eval_plap(spec_1d, uc, [node], qcfg) == 0.0
        uc.save(tmp_path / "c.csv")
        back = fx.SampledFunction.load(tmp_path / "c.csv")
        assert back.exterior_rule == "constant:0.7"
        assert fx.eval_plap(spec_1d, back, [node], qcfg) == 0.0

    @pytest.mark.parametrize("edit", [
        {"smoothness_hint": 3.9}, {"smoothness_hint": 2.5}, {"smoothness_hint": "3"},
        {"smoothness_hint": 1}, {"dim": 2}, {"dim": "1"}, {"dim": None},
        {"shape": [11.5]}, {"exterior_rule": 5}, {"exterior_rule": None},
        {"exterior_rule": ["zero_outside_ball"]}])
    def test_load_refuses_a_header_it_cannot_keep(self, tmp_path, edit):
        # a hint other than exactly 2 or 3, or a fractional shape, was truncated
        # by int(), the header's dim was never read, and an exterior rule that is
        # neither a name nor a callable loaded and failed at the first evaluation
        u = fx.SampledFunction.from_function(lambda p: np.zeros(len(p)), 1.5, 11)
        u.save(tmp_path / "u.csv")
        header = tmp_path / "u.json"
        header.write_text(json.dumps({**json.loads(header.read_text()), **edit}))
        with pytest.raises(fx.PreconditionError, match=next(iter(edit))):
            fx.SampledFunction.load(tmp_path / "u.csv")

    def test_load_keeps_an_integral_float_hint(self, tmp_path):
        u = fx.SampledFunction.from_function(lambda p: np.zeros(len(p)), 1.5, 11, 2,
                                             smoothness_hint=3)
        u.save(tmp_path / "u.csv")
        header = tmp_path / "u.json"
        header.write_text(json.dumps({**json.loads(header.read_text()), "smoothness_hint": 3.0,
                                      "shape": [11.0, 11.0]}))
        back = fx.SampledFunction.load(tmp_path / "u.csv")
        assert back.smoothness_hint == 3 and type(back.smoothness_hint) is int
        assert back.shape == (11, 11)

    def test_malformed_constant_rule(self):
        with pytest.raises(fx.PreconditionError, match="constant:abc"):
            fx.SampledFunction(np.zeros(101), (101,), 1.5, exterior_rule="constant:abc")

    @pytest.mark.parametrize("shape, extent", [
        ((5, 7), 1.5), ((7, 5), 1.5), ((5, 5, 5), 1.5),
        ((101,), float("nan")), ((101,), 0.0), ((101,), -1.5), ((101,), float("inf"))])
    def test_grid_the_interpolation_cannot_serve(self, shape, extent):
        # one spacing serves every axis and a grid has one or two axes
        with pytest.raises(fx.PreconditionError, match="shape|extent"):
            fx.SampledFunction(np.zeros(math.prod(shape)), shape, extent,
                               exterior_rule="zero_outside_box")

    def test_tent_at_exterior_point(self):
        spec = fx.make_spec("constant", dimension=1, order=0.5, m=0.5, value=3.0)
        u = fx.SampledFunction.from_function(
            lambda p: np.maximum(0.0, 1.0 - np.abs(p[:, 0])), extent=3.0, n=401, dim=1)
        cfg = fx.QuadratureConfig(tail_radius=6.5)
        v = fx.eval_plap(spec, u, [2.0], cfg)
        assert v < 0.0
        orc = brute_force_plap(spec, u, [2.0])
        assert v == pytest.approx(orc.value, rel=1e-2)

    def test_oddness_bitwise(self, spec_1d, u_bump_1d, qcfg):
        un = u_bump_1d.with_values(-u_bump_1d.values)
        a = fx.eval_plap(spec_1d, u_bump_1d, [0.31], qcfg)
        b = fx.eval_plap(spec_1d, un, [0.31], qcfg)
        assert a == -b

    def test_point_outside_box(self, spec_1d, u_bump_1d, qcfg):
        with pytest.raises(fx.PreconditionError):
            fx.eval_plap(spec_1d, u_bump_1d, [1.6], qcfg)

    def test_dimension_mismatch(self, spec_2d, u_bump_1d, qcfg):
        with pytest.raises(fx.PreconditionError):
            fx.eval_plap(spec_2d, u_bump_1d, [0.1], qcfg)

    def test_extent_beyond_tail_radius(self, spec_1d, qcfg):
        # tail_radius is only a floor on r_eff, which is at least the box
        # diameter 2L = 6: the default 4.0 and 6.5 give one plan
        u = fx.SampledFunction.from_function(
            lambda p: np.maximum(0.0, 1.0 - np.abs(p[:, 0])), extent=3.0, n=201, dim=1)
        value = fx.eval_plap(spec_1d, u, [0.0], qcfg)
        assert np.isfinite(value)
        assert value == fx.eval_plap(spec_1d, u, [0.0], fx.QuadratureConfig(tail_radius=6.5))

    @pytest.mark.parametrize("key", ["tail_radius", "tail_tolerance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_tail_settings_finite_and_positive(self, key, value):
        # a NaN tail_radius made r_eff NaN; a NaN or infinite tolerance
        # certified any discarded tail
        with pytest.raises(fx.PreconditionError, match=key):
            fx.QuadratureConfig(**{key: value})

    def test_monotone_comparison_shared_nodes(self, spec_1d, u_bump_1d, qcfg):
        # v >= u nodewise with equality at the evaluation node; identical
        # quadrature nodes via a shared plan.  Quadratic stencils can
        # undershoot a C^1 gap by O(h^2), hence the small slack.
        nodes = u_bump_1d.nodes()[:, 0]
        gap = 0.3 * np.maximum(0.0, 1.0 - ((nodes - 0.6) / 0.35) ** 2) ** 2
        v = u_bump_1d.with_values(u_bump_1d.values + gap)
        x = np.array([[-0.4]])
        assert gap[np.argmin(np.abs(nodes + 0.4))] == 0.0
        plan = build_plan(spec_1d, u_bump_1d, x, qcfg)
        eu = apply_plan(plan, u_bump_1d.values)
        ev = apply_plan(plan, v.values)
        assert eu[0] >= ev[0] - 1e-9 * max(1.0, abs(eu[0]))

    def test_exterior_sign_for_nonneg_u(self, spec_1d, u_bump_1d, qcfg):
        for x in (1.1, -1.2, 1.45):
            assert fx.eval_plap(spec_1d, u_bump_1d, [x], qcfg) < 0.0


class TestEvalPlapField:
    def test_empty(self, spec_1d, u_bump_1d, qcfg):
        out = fx.eval_plap_field(spec_1d, u_bump_1d, np.zeros((0, 1)), qcfg)
        assert out.shape == (0,)

    def test_single_matches_pointwise(self, spec_1d, u_bump_1d, qcfg):
        a = fx.eval_plap_field(spec_1d, u_bump_1d, [[0.2]], qcfg)
        b = fx.eval_plap(spec_1d, u_bump_1d, [0.2], qcfg)
        assert a[0] == b

    def test_batch_matches_sequential(self, spec_1d, u_bump_1d, qcfg):
        pts = np.array([[-0.5], [0.1], [0.7]])
        batch = fx.eval_plap_field(spec_1d, u_bump_1d, pts, qcfg)
        seq = [fx.eval_plap(spec_1d, u_bump_1d, p, qcfg) for p in pts]
        np.testing.assert_allclose(batch, seq, rtol=0, atol=0)

    def test_batch_matches_sequential_2d(self, spec_2d, u_bump_2d, qcfg):
        # batch and single-point plans number their exterior slots differently;
        # (1.3, 0.2) and (0.05, 1.4) lie outside the ball and near the box edge
        pts = np.array([[0.1, -0.2], [-0.6, 0.5], [1.3, 0.2], [0.05, 1.4]])
        for name, u in TestPlanLayout._views(u_bump_2d).items():
            batch = fx.eval_plap_field(spec_2d, u, pts, qcfg)
            seq = [fx.eval_plap(spec_2d, u, p, qcfg) for p in pts]
            np.testing.assert_allclose(batch, seq, rtol=0, atol=0, err_msg=name)

    def test_one_kernel_pass_per_evaluation(self, spec_1d, u_bump_1d, qcfg, monkeypatch):
        # every operator value reads the pass its plan build makes, on a row
        # memo miss or hit, on a grid or a view; manufacture's h is one such value
        passes, differences = [], _backend._differences
        monkeypatch.setattr(_backend, "_differences",
                            lambda *args: passes.append(1) or differences(*args))
        pts = np.array([[-0.5], [0.1], [0.7]])
        view = fx.ReflectedFunction(u_bump_1d, fx.axis_plane(1, -0.2))
        for name, evaluate in (
                ("field", lambda: fx.eval_plap_field(spec_1d, u_bump_1d, pts, qcfg)),
                ("field, row memo hit", lambda: fx.eval_plap_field(spec_1d, u_bump_1d, pts, qcfg)),
                ("field on a view", lambda: fx.eval_plap_field(spec_1d, view, pts, qcfg)),
                ("point", lambda: fx.eval_plap(spec_1d, u_bump_1d, [0.31], qcfg)),
                ("manufacture", lambda: manufacture(spec_1d, n=101, cfg=qcfg))):
            passes.clear()
            evaluate()
            assert len(passes) == 1, name

    def test_bad_point_reports_index(self, spec_1d, u_bump_1d, qcfg):
        with pytest.raises(fx.PreconditionError, match="1"):
            fx.eval_plap_field(spec_1d, u_bump_1d, [[0.0], [2.0]], qcfg)


class TestOracleAgreement:
    def test_1d_smooth_bump(self, spec_1d, u_bump_1d, qcfg):
        for x in (-0.6, 0.0, 0.45):
            v = fx.eval_plap(spec_1d, u_bump_1d, [x], qcfg)
            orc = brute_force_plap(spec_1d, u_bump_1d, [x])
            assert v == pytest.approx(orc.value, rel=1e-2)

    def test_oracle_ladder_monotone_structure(self, spec_1d, u_bump_1d):
        orc = brute_force_plap(spec_1d, u_bump_1d, [0.3])
        eps = [e for e, _ in orc.ladder]
        assert all(b < a for a, b in zip(eps, eps[1:]))
        assert 0.0 <= orc.contraction < 0.95

    def test_constant_exponent_two_paths(self, const3_1d, u_bump_1d, qcfg):
        v = fx.eval_plap(const3_1d, u_bump_1d, [0.25], qcfg)
        indep = constant_p_plap(3.0, const3_1d.order, u_bump_1d, [0.25])
        assert v == pytest.approx(indep, rel=1e-3)

    def test_refinement_improves(self, spec_1d, u_bump_1d):
        orc = brute_force_plap(spec_1d, u_bump_1d, [0.3])
        coarse = fx.QuadratureConfig(graded_levels=6, nodes_per_level=4)
        fine = fx.QuadratureConfig(graded_levels=16, nodes_per_level=12)
        ec = abs(fx.eval_plap(spec_1d, u_bump_1d, [0.3], coarse) - orc.value)
        ef = abs(fx.eval_plap(spec_1d, u_bump_1d, [0.3], fine) - orc.value)
        assert ef <= ec


class TestTailIntegrability:
    def test_compact_support_zero_increments(self, spec_1d, u_bump_1d):
        # u vanishes past |y| = 1, so every shell beyond 1 + |x| is exactly zero
        rep = fx.tail_integrability_check(spec_1d, u_bump_1d, [0.2], [2.0, 4.0, 8.0])
        assert rep.verdict == "decaying"
        assert rep.increments[1] == 0.0 and rep.increments[2] == 0.0

    def test_constant_one_matches_quadrature(self, const3_1d):
        u = fx.SampledFunction(np.ones(101), (101,), 1.5,
                               exterior_rule=lambda p: np.ones(len(np.atleast_2d(p))))
        radii = [2.0, 4.0, 8.0, 16.0]
        rep = fx.tail_integrability_check(const3_1d, u, [0.0], radii)
        sp = 1.0 + const3_1d.order * 3.0
        for rk, total in zip(radii, rep.integrals):
            ref, _ = integrate.quad(lambda y: 2.0 / (1.0 + y ** sp), 0.0, rk)
            assert total == pytest.approx(ref, rel=1e-6)
        # increments decay like R^(-s p); with s p = 0.9 they shrink slowly
        assert rep.increments[-1] < rep.increments[1]

    def test_growth_inconclusive(self, const3_1d):
        u = fx.SampledFunction(np.ones(101), (101,), 1.5,
                               exterior_rule=lambda p: np.linalg.norm(np.atleast_2d(p), axis=1) ** 2)
        rep = fx.tail_integrability_check(const3_1d, u, [0.0], [2.0, 8.0, 32.0],
                                          increment_tolerance=1e-9)
        assert rep.verdict == "inconclusive"

    def test_radii_must_increase(self, spec_1d, u_bump_1d):
        with pytest.raises(fx.PreconditionError):
            fx.tail_integrability_check(spec_1d, u_bump_1d, [0.0], [4.0, 2.0])


def _apply_loop(plan, values: np.ndarray) -> np.ndarray:
    """Per-node loop twin of `apply_plan(plan, values)`, the reference for its
    arithmetic: the operator value at each point, from the point's center row
    and its node rows, each entry read one at a time."""
    values = np.asarray(values, dtype=float)
    m, v = float(_shift(values)), np.concatenate([values, plan.ext_values])
    v, rptr, rcol, rval, wk, pm2 = (a.tolist() for a in (
        v, plan.rptr, plan.rcol, plan.rval, plan.wk, plan.pm2))

    def row(j):  # (R (v - m))_j
        return sum(rval[e] * (v[rcol[e]] - m) for e in range(rptr[j], rptr[j + 1]))
    sums = np.empty(plan.n_points)
    for i in range(plan.n_points):
        c, acc = row(len(wk) + i), 0.0
        for j in range(plan.ptr[i], plan.ptr[i + 1]):
            t = c - row(j)
            acc += wk[j] * abs(t) ** pm2[j] * t if t != 0.0 else 0.0
        sums[i] = acc
    return sums


class TestBackends:
    def test_parity(self, spec_1d, spec_2d, u_bump_1d, qcfg):
        # the per-node loop is the reference for the arithmetic of the kernel
        # apply_plan runs (per-node order, exterior slots, the per-point sum of
        # every node term); x = 1.3 has an exterior center under zero_outside_ball,
        # so center slots are read too.  The 2-d solver set and its reflected
        # view add box-clipped stencils and 16,000 rows of mirrored slots
        u2 = fx.SampledFunction.from_function(bump_profile(0.5, 0.5), 1.5, 15, 2)
        cases = {name: (spec_1d, u, TestPlanLayout.POINTS)
                 for name, u in TestPlanLayout._views(u_bump_1d).items()}
        pts2 = u2.nodes()[interior_mask(u2)]
        cases["2d"] = (spec_2d, u2, pts2)
        cases["2d_reflected"] = (spec_2d, fx.ReflectedFunction(u2, fx.axis_plane(2, -0.2)), pts2)
        for name, (spec, u, pts) in cases.items():
            plan = build_plan(spec, u, pts, qcfg)
            values = getattr(u, "base", u).values
            np.testing.assert_allclose(_apply_loop(plan, values), apply_plan(plan, values),
                                       rtol=1e-12, atol=1e-13, err_msg=name)

    @pytest.mark.parametrize("spec_name", ["spec_1d", "spec_2d", "const3_1d", "const3_2d"])
    def test_jacobian_matches_finite_differences(self, spec_name, qcfg, request):
        # a perturbed bump on the solver's collocation set: rows of every level
        # and exterior slots, which are constants and must drop out
        spec = request.getfixturevalue(spec_name)
        n = 41 if spec.dimension == 1 else 11
        u = fx.SampledFunction.from_function(bump_profile(0.5, 0.5), 1.5, n, spec.dimension)
        idx = np.nonzero(interior_mask(u))[0]
        plan = build_plan(spec, u, u.nodes()[idx], qcfg)
        assert plan.ext_values.size > 0
        v = u.values.copy()
        v[idx] += 0.02 * np.random.default_rng(3).standard_normal(len(idx))
        jac = jacobian(plan, v)
        assert jac.shape == (len(idx), v.size)
        eps = 1e-6
        fd = np.empty_like(jac)
        for k in range(v.size):
            e = np.zeros(v.size)
            e[k] = eps
            fd[:, k] = (apply_plan(plan, v + e) - apply_plan(plan, v - e)) / (2.0 * eps)
        assert np.max(np.abs(jac - fd)) <= 1e-5 * np.max(np.abs(jac))


class TestZeroDifferences:
    """f(0) = 0 for every p: a row whose difference t is exactly 0 adds 0, also
    where p < 2 and wk |t|^(p-2) t would be inf * 0."""

    #: m = 0.3 puts p in [1.83, 2.33]: p < 2 on the innermost levels
    SPEC = fx.make_spec("example_ii", dimension=1, order=0.5, m=0.3)

    def test_constant_data_give_exact_zeros(self, qcfg):
        assert self.SPEC.p_minus < 2.0
        u = fx.SampledFunction(np.full(101, 0.2), (101,), 1.5, exterior_rule="constant:0.2")
        np.testing.assert_array_equal(
            fx.eval_plap_field(self.SPEC, u, [[0.3], [1.2]], qcfg), [0.0, 0.0])
        plan = build_plan(self.SPEC, u, [[0.3], [1.2]], qcfg)
        for sums in (plan.sums, _apply_loop(plan, u.values)):
            np.testing.assert_array_equal(sums, 0.0)
        # off the nodes a stencil's coefficients times c need not sum to c in
        # floating point, but the centers are read as C (v - m), so every
        # difference is exactly 0, on a grid and under an oblique view
        rng = np.random.default_rng(11)
        for dim, n in ((1, 101), (2, 15)):
            spec = fx.make_spec("example_ii", dimension=dim, order=0.5, m=0.3)
            pts = rng.uniform(-0.9, 0.9, (40, dim))
            plane = fx.PlaneGeometry((0.6, 0.8) if dim == 2 else (1.0,), -0.3)
            for c in (0.7, 0.3, 1 / 3):
                u = fx.SampledFunction(np.full(n ** dim, c), (n,) * dim, 1.5,
                                       exterior_rule=f"constant:{c!r}")
                for w in (u, fx.ReflectedFunction(u, plane)):
                    np.testing.assert_array_equal(fx.eval_plap_field(spec, w, pts, qcfg), 0.0,
                                                  err_msg=f"{dim}-d, c = {c}, {type(w).__name__}")

    def test_value_outside_the_support_is_finite(self, u_bump_1d, qcfg):
        # at x = 1.2 the center and every node past |y| = 1 read 0, so the
        # innermost rows have t = 0 at p < 2
        plan = build_plan(self.SPEC, u_bump_1d, [[1.2]], qcfg)
        t = _backend._differences(plan, u_bump_1d.values)
        assert np.any((t == 0.0) & (plan.pm2 < 0.0))
        value = plan.sums
        assert np.isfinite(value[0]) and value[0] < 0.0
        np.testing.assert_allclose(_apply_loop(plan, u_bump_1d.values), value, rtol=1e-12)
        orc = brute_force_plap(self.SPEC, u_bump_1d, [1.2])
        assert value[0] == pytest.approx(orc.value, rel=1e-2)


def _plan_diff(a, b):
    """Names of the EvalPlan fields in which two plans differ."""
    def equal(name, x, y):
        if name == "meta":
            return x == y
        if name == "R":  # the sparse matrix, compared by its arrays and shape
            return x.shape == y.shape and all(np.array_equal(getattr(x, k), getattr(y, k))
                                              for k in ("data", "indices", "indptr"))
        return np.array_equal(x, y)
    return [f.name for f in dataclasses.fields(a)
            if not equal(f.name, getattr(a, f.name), getattr(b, f.name))]


def _uncollapsed_nodes(spec, plan, x, extent, cfg):
    """Positions, weights w_node * kernel and p - 2 of every node around x."""
    dirs, aw = directions(spec.dimension, cfg.angular_nodes)
    rs, pos, w_node = paired_nodes(x, extent, plan.r_eff, cfg, dirs, aw)
    q = np.asarray(spec.q(rs), dtype=float)
    kern = rs ** (-(spec.dimension + spec.order * q))
    rep = len(dirs)
    return pos, w_node * np.repeat(kern, rep), np.repeat(q - 2.0, rep)


def _exterior_rule(u, pos):
    """Which positions take the exterior rule, and its values there, from the rule's definition."""
    base = getattr(u, "base", u)
    z = u.plane.reflect(pos) if hasattr(u, "plane") else pos
    out = np.any(np.abs(z) > base.extent, axis=1)
    rule = base.exterior_rule
    if rule == "zero_outside_ball":
        return out | (np.linalg.norm(z, axis=1) >= 1.0), np.zeros(len(z))
    if callable(rule):
        val = rule(z)
    else:
        val = np.full(len(z), float(rule.removeprefix("constant:")))
    return out, np.where(out, val, 0.0)


class TestPlanLayout:
    POINTS = np.array([[-0.9], [-0.3], [0.2], [0.8], [1.3]])

    @staticmethod
    def _views(u):
        const = fx.SampledFunction(u.values + 0.2, u.shape, u.extent,
                                   exterior_rule="constant:0.2")
        wavy = fx.SampledFunction(u.values, u.shape, u.extent,
                                  exterior_rule=lambda p: 0.05 * np.cos(3.0 * p[:, 0]))
        refl = fx.ReflectedFunction(u, fx.axis_plane(u.dim, -0.2))
        return {"zero_outside_ball": u, "constant": const, "callable": wavy,
                "reflected": refl}

    # with a constant exponent every exterior row shares p - 2, so exterior
    # nodes of every level that read one slot merge into one row
    @pytest.mark.parametrize("spec_name", ["spec_1d", "const3_1d"])
    def test_weight_sums_match_uncollapsed_nodes(self, spec_name, u_bump_1d, qcfg, request):
        # merging nodes into rows keeps each point's total weight
        spec_1d = request.getfixturevalue(spec_name)
        for name, u in self._views(u_bump_1d).items():
            plan = build_plan(spec_1d, u, self.POINTS, qcfg)
            for i, x in enumerate(self.POINTS):
                _, wk, _ = _uncollapsed_nodes(spec_1d, plan, x, u_bump_1d.extent, qcfg)
                got = plan.wk[plan.ptr[i]:plan.ptr[i + 1]].sum()
                np.testing.assert_allclose(got, wk.sum(), rtol=1e-13, atol=0,
                                           err_msg=f"{name} point {i}")

    @pytest.mark.parametrize("spec_name", ["spec_1d", "const3_1d"])
    def test_apply_matches_direct_node_sum(self, spec_name, u_bump_1d, qcfg, request):
        spec_1d = request.getfixturevalue(spec_name)
        for name, u in self._views(u_bump_1d).items():
            plan = build_plan(spec_1d, u, self.POINTS, qcfg)
            got = apply_plan(plan, getattr(u, "base", u).values)
            for i, x in enumerate(self.POINTS):
                pos, wk, pm2 = _uncollapsed_nodes(spec_1d, plan, x, u_bump_1d.extent, qcfg)
                c = u.point_eval(x[None, :])[0]
                t = c - u.point_eval(pos)
                terms = wk * np.abs(t) ** pm2 * t
                want = terms.sum()
                assert abs(got[i] - want) <= 1e-12 * np.abs(terms).sum(), (name, i)

    def test_one_exterior_row_per_key(self, spec_1d, u_bump_1d, qcfg):
        for name, u in self._views(u_bump_1d).items():
            base = getattr(u, "base", u)
            n = base.values.size
            plan = build_plan(spec_1d, u, self.POINTS, qcfg)
            # no stored zero; R is a view of the stored arrays, one column per slot
            assert np.all(plan.rval != 0.0), name
            assert plan.rcol.dtype == plan.rptr.dtype == np.int32, name
            assert plan.R.shape == (plan.wk.size + plan.n_points, n + plan.ext_values.size), name
            assert all(np.shares_memory(getattr(plan.R, k), a) for k, a in
                       (("data", plan.rval), ("indices", plan.rcol), ("indptr", plan.rptr))), name
            for i, (a, b) in enumerate(zip(plan.ptr[:-1], plan.ptr[1:])):
                lo, hi = plan.rptr[a:b], plan.rptr[a + 1:b + 1]
                ext = plan.rcol[lo] >= n
                # interior rows come first, exterior rows after them
                assert not np.any(np.diff(ext.astype(int)) < 0), name
                cols = np.concatenate([plan.rcol[j:k] for j, k in zip(lo[~ext], hi[~ext])])
                assert np.all(cols < n), name
                # an exterior row is one entry 1.0 on column n + slot
                np.testing.assert_array_equal(hi[ext] - lo[ext], 1, err_msg=name)
                np.testing.assert_array_equal(plan.rval[lo[ext]], 1.0, err_msg=name)
                slot = plan.rcol[lo[ext]] - n
                keys = set(zip(plan.pm2[a:b][ext], slot))
                assert len(keys) == int(ext.sum()), name
                # the slots hold the exterior rule's values, one row per key of the nodes
                pos, _, pm2 = _uncollapsed_nodes(spec_1d, plan, self.POINTS[i],
                                                 base.extent, qcfg)
                out, val = _exterior_rule(u, pos)
                got = zip(plan.pm2[a:b][ext], plan.ext_values[slot])
                assert set(got) == set(zip(pm2[out], val[out])), (name, i)

    def test_row_weights_sum_to_one(self, spec_1d, spec_2d, u_bump_1d, qcfg):
        # the kernel forms a row's difference as c - (R v)_row, which is
        # sum_k a_k (c - v_k) because a row's stored entries are Lagrange
        # weights summing to one (to 3 eps at most, with 2-d cubic stencils)
        cases = {name: (spec_1d, u, self.POINTS) for name, u in self._views(u_bump_1d).items()}
        for hint in (2, 3):
            u2 = fx.SampledFunction.from_function(bump_profile(0.5, 0.5), 1.5, 15, 2,
                                                  smoothness_hint=hint)
            cases[f"2d hint {hint}"] = (spec_2d, u2, u2.nodes()[interior_mask(u2)])
        for name, (spec, u, pts) in cases.items():
            plan = build_plan(spec, u, pts, qcfg)
            sums = np.add.reduceat(plan.rval, plan.rptr[:-1])
            assert np.max(np.abs(sums - 1.0)) <= 4 * np.finfo(float).eps, name

    def test_centers_are_point_eval(self, spec_1d, spec_2d, u_bump_1d, qcfg):
        # center i is row nnz + i of R: the stencil of linear_form, the code
        # point_eval reads, with its zeros dropped, in stencil order; an
        # exterior center is one 1.0 on a slot that holds point_eval's value.
        # Off the nodes and under views too, an oblique one in 2-d
        cases = {name: (spec_1d, u, self.POINTS) for name, u in self._views(u_bump_1d).items()}
        u2 = fx.SampledFunction.from_function(bump_profile(0.5, 0.5), 1.5, 15, 2)
        pts2 = np.random.default_rng(4).uniform(-1.2, 1.2, (12, 2))
        cases["2d oblique view"] = (spec_2d, fx.ReflectedFunction(
            u2, fx.PlaneGeometry((0.6, 0.8), -0.3)), pts2)
        seen = set()
        for name, (spec, u, pts) in cases.items():
            plan = build_plan(spec, u, pts, qcfg)
            n, nnz = getattr(u, "base", u).values.size, plan.wk.size
            interp, idx, coef, _ = u.linear_form(pts)
            seen.update(interp.tolist())
            at = np.cumsum(interp) - 1
            for i in range(len(pts)):
                lo, hi = plan.rptr[nnz + i:nnz + i + 2]
                cols, vals = plan.rcol[lo:hi], plan.rval[lo:hi]
                if interp[i]:
                    keep = coef[at[i]] != 0.0
                    np.testing.assert_array_equal(cols, idx[at[i]][keep], err_msg=name)
                    np.testing.assert_array_equal(vals, coef[at[i]][keep], err_msg=name)
                else:
                    assert vals.tolist() == [1.0] and cols[0] >= n, (name, i)
                    assert plan.ext_values[cols[0] - n] == u.point_eval(pts[i])[0], (name, i)
        assert seen == {False, True}

    @pytest.mark.parametrize("dim, n", [(1, 101), (2, 15), (2, 41)])
    def test_node_centers_are_unit_stencils(self, dim, n, qcfg, request):
        # at a collocation node the center row is one entry, 1.0 on that
        # node, so a pass's center values are the node values bit for bit
        # and the solver's rhs reads values[idx]
        spec = request.getfixturevalue(f"spec_{dim}d")
        u = fx.SampledFunction.from_function(bump_profile(0.5, 0.5), 1.5, n, dim)
        idx = np.nonzero(interior_mask(u))[0]
        plan = build_plan(spec, u, u.nodes()[idx], qcfg)
        nnz = plan.wk.size
        lo, hi = plan.rptr[nnz:-1], plan.rptr[nnz + 1:]
        np.testing.assert_array_equal(hi - lo, 1)
        np.testing.assert_array_equal(plan.rcol[lo], idx)
        np.testing.assert_array_equal(plan.rval[lo], 1.0)
        # the centers a pass reads, C (v - m), are the shifted node values
        v = np.random.default_rng(n).uniform(0.0, 1.0, u.values.size)
        m = _shift(v)
        c = (plan.R @ (np.concatenate([v, plan.ext_values]) - m))[nnz:]
        np.testing.assert_array_equal(c, v[idx] - m)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_empty_point_set(self, dim, qcfg, request):
        spec, u = request.getfixturevalue(f"spec_{dim}d"), request.getfixturevalue(f"u_bump_{dim}d")
        plan = build_plan(spec, u, np.zeros((0, dim)), qcfg)
        assert plan.n_points == 0 and plan.wk.size == 0
        assert plan.rval.size == plan.rcol.size == 0
        np.testing.assert_array_equal(plan.rptr, [0])
        assert plan.R.shape == (0, u.values.size) and plan.counters()["entries"] == 0
        assert apply_plan(plan, u.values).shape == (0,)

    def test_plan_does_not_depend_on_blocks(self, spec_1d, spec_2d, u_bump_1d, qcfg, monkeypatch):
        # x = 1.3 has a smaller pairing radius than the other points, so the 1-d
        # points form two runs; the 2-d collocation set spans several blocks
        u2 = fx.SampledFunction.from_function(bump_profile(0.5, 0.5), 1.5, 15, 2)
        cases = {name: (spec_1d, u, self.POINTS) for name, u in self._views(u_bump_1d).items()}
        cases["2d"] = (spec_2d, u2, u2.nodes()[interior_mask(u2)])
        for name, (spec, u, pts) in cases.items():
            want = build_plan(spec, u, pts, qcfg)
            m = want.meta["nodes_uncollapsed"] // want.n_points  # about one point's template
            # one point per block, also below one template (a block then holds one
            # point's near nodes and its far pseudo-rows); several points; each run
            for block in (1, m - 1, 3 * m + 1, 2 ** 40):
                monkeypatch.setattr(quadrature, "PLAN_BLOCK", block)
                quadrature._drop_rows()  # the same key: rebuild, do not reuse want's rows
                got = build_plan(spec, u, pts, qcfg)
                monkeypatch.undo()
                assert _plan_diff(got, want) == [], (name, block)

    @pytest.mark.parametrize("n, bound, plane", [
        pytest.param(15, 1.22, None, id="15-1.22"),
        pytest.param(41, 1.1, None, id="41-1.1"),
        pytest.param(41, 1.25, ((1.0, 0.0), -0.5), id="41-axis_view-1.25"),
        pytest.param(41, 1.8, ((0.6, 0.8), -0.3), id="41-oblique_view-1.8")])
    def test_row_build_peak_stays_near_the_plan_size(self, spec_2d, qcfg, n, bound, plane):
        # the rows are sized first, then written once into arrays allocated
        # once, each point's stencils straight into its slice, so one build
        # holds about one copy of the plan (1.18x at n=15 and 1.05x at n=41;
        # 1.20x and 1.06x while the second pass held the tables' box tests,
        # 1.33x and 1.07x when a block's stencils were formed whole, 2.29x and
        # 2.12x when the blocks were kept and concatenated).  A view on the
        # Omega nodes of a plane uses its grid's tables at the mirror images,
        # which across an oblique plane share no coordinate, so one run's
        # tables hold every near node (1.14x axis, 1.54x oblique; 1.16x and
        # 1.71x with the box tests held)
        u = fx.SampledFunction.from_function(bump_profile(0.5, 0.5), 1.5, n, 2)
        pts, w = u.nodes()[interior_mask(u)], u
        if plane is not None:
            w = fx.ReflectedFunction(u, fx.PlaneGeometry(*plane))
            pts = pts[w.plane.in_halfspace(pts)]
        r_eff = truncation_radius(spec_2d, u.values, u.extent, qcfg)
        quadrature._drop_rows()
        tracemalloc.start()
        try:
            rows = quadrature._plan_rows(spec_2d, w, u, pts, qcfg, r_eff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            quadrature._drop_rows()
        arrays = {f.name: getattr(rows, f.name) for f in dataclasses.fields(rows)
                  if isinstance(getattr(rows, f.name), np.ndarray)}
        # each array owns its buffer, so nbytes and counters() count what is held
        assert [k for k, a in arrays.items() if a.base is not None] == []
        assert peak <= bound * sum(a.nbytes for a in arrays.values()), peak

    @pytest.mark.parametrize("call", ["apply_plan", "jacobian"])
    def test_pass_holds_at_most_two_and_a_half_row_arrays(self, spec_2d, qcfg, call):
        # a kernel pass forms t in the buffer of R (v - m) and the power and
        # products in one work array, so beyond its output it holds about two
        # arrays of one float64 per plan row (2.1 and 1.9 on the 2-d n=15
        # solver plan)
        u = fx.SampledFunction.from_function(bump_profile(0.5, 0.5), 1.5, 15, 2)
        plan = build_plan(spec_2d, u, u.nodes()[interior_mask(u)], qcfg)
        fn = {"apply_plan": apply_plan, "jacobian": jacobian}[call]
        out = 0 if fn is apply_plan else 8 * plan.n_points * u.values.size
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            fn(plan, u.values)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * plan.wk.size + out, (peak - out) / (8 * plan.wk.size)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_far_nodes_read_the_exterior_value(self, dim, request, qcfg):
        # the row build skips linear_form past r_far; there it must give no
        # stencil and the rule's one value, for every point and direction
        spec = request.getfixturevalue(f"spec_{dim}d")
        u = fx.SampledFunction.from_function(bump_profile(0.5, 0.5), 1.5, 9 if dim == 2 else 101,
                                             dim)
        box = fx.SampledFunction(u.values, u.shape, u.extent, exterior_rule="zero_outside_box")
        const = fx.SampledFunction(u.values + 0.3, u.shape, u.extent,
                                   exterior_rule="constant:0.3")
        pts = u.nodes()[u.inside_box(u.nodes(), strict=True)]  # out to the box's edge
        dirs, aw = directions(dim, qcfg.angular_nodes)
        r_eff = truncation_radius(spec, u.values, u.extent, qcfg)
        views = {"zero_outside_ball": (u, 0.0), "constant": (const, 0.3),
                 "zero_outside_box at +0.5": (fx.ReflectedFunction(box, fx.axis_plane(dim, 0.5)),
                                              0.0)}
        for name, (v, c) in views.items():
            r_far, c_far = quadrature._far_field(v, pts)
            assert c_far == c, name
            pos = []
            for x in pts:
                rs, p, _ = paired_nodes(x, u.extent, r_eff, qcfg, dirs, aw)
                pos.append(p[np.repeat(rs > r_far, len(dirs))])
            pos = np.concatenate(pos)
            assert len(pos) > 0.4 * len(pts) * len(rs) * len(dirs), name  # most nodes are far
            interp, idx, _, ext = v.linear_form(pos)
            assert not interp.any() and len(idx) == 0, name
            np.testing.assert_array_equal(ext, c, err_msg=name)

    def test_2d_solver_plan_is_compact(self, spec_2d, qcfg):
        u = fx.SampledFunction.from_function(bump_profile(0.5, 0.5), 1.5, 15, 2)
        pts = u.nodes()[interior_mask(u)]
        plan = build_plan(spec_2d, u, pts, qcfg)
        full = sum(len(_uncollapsed_nodes(spec_2d, plan, x, u.extent, qcfg)[1]) for x in pts)
        assert plan.meta["nodes_uncollapsed"] == full
        assert plan.wk.size <= 0.4 * full


class TestTailCertificate:
    def test_failure_names_the_radius(self, spec_model, qcfg):
        # an exterior value of 3 makes the far tail too large for r_eff; the
        # error names the radius that certifies it, and that radius evaluates
        def bump(rule):
            return fx.SampledFunction.from_function(bump_profile(0.5, 0.5), 1.5, 101, 1,
                                                    exterior_rule=rule)
        with pytest.raises(fx.TailError, match=r"use tail_radius >= 2\.31643e\+07"):
            fx.eval_plap(spec_model, bump("constant:3.0"), [0.3], qcfg)
        value = fx.eval_plap(spec_model, bump("constant:3.0"), [0.3],
                             fx.QuadratureConfig(tail_radius=2.32e7))
        assert value == pytest.approx(-4.2004, abs=1e-4)
        assert np.isfinite(fx.eval_plap(spec_model, bump("constant:2.0"), [0.3], qcfg))

    def test_printed_radius_certifies(self, spec_model, qcfg):
        # the error names the worst point's radius (x = 0.9 needs 6.40502e7 and
        # x = 0 5.81467e7), rounded up to the printed digits, so a rebuild at
        # the printed radius certifies; the plan's one bound is the largest of
        # the points' own bounds
        u = fx.SampledFunction.from_function(bump_profile(0.5, 0.5), 1.5, 101, 1,
                                             exterior_rule="constant:5")
        pts = np.array([[0.0], [0.9]])
        with pytest.raises(fx.TailError, match=r"use tail_radius >= 6\.40503e\+07$") as err:
            build_plan(spec_model, u, pts, qcfg)
        radius = float(re.search(r">= (\S+)$", str(err.value)).group(1))
        plan = build_plan(spec_model, u, pts, fx.QuadratureConfig(tail_radius=radius))
        assert plan.r_eff == radius and np.all(np.isfinite(plan.sums))
        per_point = [quadrature.tail_bound_at(quadrature._f_abs_max(
            abs(c - 5.0), spec_model.p_minus, spec_model.p_plus), 1, spec_model.order,
            spec_model.p_minus, radius) for c in u.point_eval(pts)]
        assert plan.tail_bound == max(per_point) <= qcfg.tail_tolerance * (1.0 + 1e-9)

    def test_r_eff_covers_box_diameter(self, spec_2d):
        # a loose tolerance alone would stop the far ray from the corner inside
        # the box, where u reads 0.1 rather than the exterior rule's 0.0
        u = fx.SampledFunction(np.full(61 * 61, 0.1), (61, 61), 1.5, exterior_rule="constant:0.0")
        x = np.array([[-1.4, -1.4]])
        cfg = fx.QuadratureConfig(tail_tolerance=1.0)
        plan = build_plan(spec_2d, u, x, cfg)
        assert plan.r_eff >= 3.0 * math.sqrt(2.0)
        assert truncation_radius(spec_2d, u.values, u.extent, cfg) == plan.r_eff
        dirs, _ = directions(2, cfg.angular_nodes)
        assert np.all(np.max(np.abs(x + plan.r_eff * dirs), axis=1) > u.extent)


class TestLinearForm:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("hint", [2, 3])
    def test_offset_tables_match_positions(self, dim, hint):
        # the plan's near rows come from per-axis tables: a grid's must equal
        # its linear_form on the positions x + offset bit for bit, and a view's
        # are its base grid's at T(x) + R offset (R the reflection's linear
        # part), which is T(x + offset) to round-off
        rng = np.random.default_rng(11 + dim + 10 * hint)
        u = fx.SampledFunction.from_function(bump_profile(0.5, 0.5), 1.5, 21, dim,
                                             smoothness_hint=hint)
        # random points, lattice nodes sharing coordinates, and a signed zero
        nodes = u.nodes()[rng.integers(0, u.values.size, 6)]
        pts = np.concatenate([rng.uniform(-1.4, 1.4, (6, dim)), nodes, nodes[:2],
                              np.full((1, dim), -0.0)])
        d = rng.normal(size=(300, dim))
        offsets = rng.uniform(0.0, 3.2, (300, 1)) * d / np.linalg.norm(d, axis=1, keepdims=True)
        plane = fx.PlaneGeometry((0.6, 0.8)[:dim] if dim == 2 else (1.0,), 0.3)  # oblique in 2-d
        rules = ("zero_outside_ball", "zero_outside_box", "constant:0.3",
                 lambda p: 0.05 * np.cos(3.0 * p[:, 0]) + p[:, -1])
        for rule in rules:
            v = fx.SampledFunction(u.values + (rule == "constant:0.3") * 0.3, u.shape, u.extent,
                                   exterior_rule=rule, smoothness_hint=hint)
            for name, w in ((str(rule), v), (f"{rule} view", fx.ReflectedFunction(v, plane))):
                form = w.offset_form(pts, offsets)
                assert form.grid is v, name
                pos = (form.pts[:, None, :] + form.offsets).reshape(-1, dim)
                shifted = (pts[:, None, :] + offsets).reshape(-1, dim)
                if w is v:
                    np.testing.assert_array_equal(pos, shifted, err_msg=name)
                else:
                    # a few ulps of the largest |coordinate|, about 4.6
                    np.testing.assert_allclose(pos, plane.reflect(shifted), rtol=0, atol=4e-15,
                                               err_msg=name)
                interp, idx, coef, ext = v.linear_form(pos)
                t_interp, t_ext, t_nz = form.block(1, len(pts))  # what the plan is sized from
                rows = slice(len(offsets), None)  # the form's points 1.. only
                np.testing.assert_array_equal(t_interp.ravel(), interp[rows], err_msg=name)
                np.testing.assert_array_equal(t_ext.ravel(), ext[rows], err_msg=name)
                # each point's stencils at its interpolated positions, in order
                by_row = [np.concatenate(a) for a in zip(*(form.stencils(j, t_interp[j - 1])
                                                           for j in range(1, len(pts))))]
                skip = np.count_nonzero(interp[:len(offsets)])
                assert by_row[0].dtype == np.int32, name
                np.testing.assert_array_equal(by_row[0], idx[skip:], err_msg=name)
                np.testing.assert_array_equal(by_row[1], coef[skip:], err_msg=name)
                # a row's entries are its nonzero coefficients
                np.testing.assert_array_equal(t_nz[t_interp], np.count_nonzero(coef[skip:], axis=1),
                                              err_msg=name)
                assert 0 < interp.sum() < len(pos), name

    @pytest.mark.parametrize("grid", ["u_bump_1d", "u_bump_2d"])
    def test_reproduces_point_eval(self, grid, request):
        # random points inside the ball, inside the box only, and outside the box [-1.5, 1.5]^N
        u0 = request.getfixturevalue(grid)
        pts = np.random.default_rng(7).uniform(-2.0, 2.0, size=(400, u0.dim))
        for name, u in TestPlanLayout._views(u0).items():
            interp, idx, coef, ext = u.linear_form(pts)
            values = getattr(u, "base", u).values
            # stencils of the interpolated points only, in point order
            assert idx.shape == coef.shape == (interp.sum(), (u0.smoothness_hint + 1) ** u0.dim)
            got = ext.copy()
            got[interp] = np.einsum("ms,ms->m", coef, values[idx])
            np.testing.assert_array_equal(got, u.point_eval(pts), err_msg=name)
            out, val = _exterior_rule(u, pts)
            np.testing.assert_array_equal(interp, ~out, err_msg=name)
            np.testing.assert_array_equal(ext, val, err_msg=name)
            assert 0 < out.sum() < len(pts), name


class TestGaussCache:
    def test_bitwise_equal_to_uncached(self):
        for a, b, n in ((0.0, 1.0, 8), (0.25, 0.5, 8), (3.0, 6.0, 5), (-1.0, 2.5, 12)):
            x, w = np.polynomial.legendre.leggauss(n)
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            gx, gw = _gauss_on(a, b, n)
            assert np.array_equal(gx, mid + half * x) and np.array_equal(gw, half * w)

    def test_cached_rule_is_read_only(self):
        x, w = _legendre_rule(8)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0
        assert _legendre_rule(8)[0] is x


class TestRowMemo:
    """build_plan holds the last point set's rows; values-dependent parts run per call."""

    @staticmethod
    def _solver_case(spec_2d):
        # manufacture's u* and solve's perturbed guess: one point set, one r_eff
        u = fx.SampledFunction.from_function(bump_profile(0.5, 0.5), 1.5, 15, 2)
        pts = u.nodes()[interior_mask(u)]
        guess = u.with_values(np.clip(u.values + 0.05 * np.sin(3.0 * u.nodes()[:, 0])
                                      * np.maximum(0.0, 1.0 - np.sum(u.nodes() ** 2, axis=1)),
                                      0.0, 0.999))
        return u, guess, pts

    def test_hit_equals_fresh_build(self, spec_1d, spec_2d, u_bump_1d, qcfg):
        u, guess, pts = self._solver_case(spec_2d)
        cases = {name: (spec_1d, v, v, TestPlanLayout.POINTS)
                 for name, v in TestPlanLayout._views(u_bump_1d).items()}
        cases["2d"] = (spec_2d, u, guess, pts)
        for name, (spec, first, second, points) in cases.items():
            a = build_plan(spec, first, points, qcfg)
            hit = build_plan(spec, second, points, qcfg)
            assert hit.rcol is a.rcol and hit.R is a.R and hit.ext_values is a.ext_values, name
            quadrature._drop_rows()
            fresh = build_plan(spec, second, points, qcfg)
            assert fresh.rcol is not hit.rcol and fresh.R is not hit.R, name
            assert _plan_diff(hit, fresh) == [], name

    def test_ratio_and_tail_are_per_call(self, spec_2d, qcfg):
        u, guess, pts = self._solver_case(spec_2d)
        a = build_plan(spec_2d, u, pts, qcfg)
        b = build_plan(spec_2d, guess, pts, qcfg)
        assert b.wk is a.wk
        assert a.tail_bound != b.tail_bound
        # the build's kernel pass is handed back with the plan, on each call's values
        for plan, values in ((a, u.values), (b, guess.values)):
            np.testing.assert_array_equal(plan.sums, apply_plan(plan, values))
        assert not np.array_equal(a.sums, b.sums)

    def test_each_key_part_forces_a_miss(self, spec_1d, const3_1d, u_bump_1d, qcfg):
        pts = TestPlanLayout.POINTS
        moved = pts.copy()
        moved[2, 0] = np.nextafter(moved[2, 0], 1.0)
        grid = dict(values=u_bump_1d.values, shape=u_bump_1d.shape, extent=u_bump_1d.extent)
        # values beyond 1 in size widen r_eff; the rows are otherwise those of u_bump_1d
        tall = u_bump_1d.with_values(3.0 * u_bump_1d.values)
        assert (truncation_radius(spec_1d, tall.values, tall.extent, qcfg)
                > truncation_radius(spec_1d, u_bump_1d.values, u_bump_1d.extent, qcfg))
        variants = {
            "r_eff": (spec_1d, tall, pts, qcfg),
            "points": (spec_1d, u_bump_1d, moved, qcfg),
            "exterior_rule": (spec_1d, fx.SampledFunction(**grid, exterior_rule="zero_outside_box"),
                              pts, qcfg),
            "callable_rule": (spec_1d, fx.SampledFunction(**grid, exterior_rule=lambda p: 0.0 * p[:, 0]),
                              pts, qcfg),
            "plane": (spec_1d, fx.ReflectedFunction(u_bump_1d, fx.axis_plane(1, -0.3)), pts, qcfg),
            "cfg": (spec_1d, u_bump_1d, pts, dataclasses.replace(qcfg, graded_levels=11)),
            "spec": (const3_1d, u_bump_1d, pts, qcfg),
            "smoothness_hint": (spec_1d, fx.SampledFunction(**grid, smoothness_hint=3), pts, qcfg),
        }
        reflected = fx.ReflectedFunction(u_bump_1d, fx.axis_plane(1, -0.2))
        for name, (spec, u, points, cfg) in variants.items():
            base_u = reflected if name == "plane" else u_bump_1d
            base = build_plan(spec_1d, base_u, pts, qcfg)
            # equal keys hit, whether or not they are the same objects
            again = build_plan(spec_1d, base_u, pts.copy(), dataclasses.replace(qcfg))
            assert again.rcol is base.rcol and again.R is base.R, name
            got = build_plan(spec, u, points, cfg)
            assert got.rcol is not base.rcol, name
            quadrature._drop_rows()
            assert _plan_diff(got, build_plan(spec, u, points, cfg)) == [], name

    def test_rows_are_read_only(self, spec_1d, u_bump_1d, qcfg):
        plan = build_plan(spec_1d, u_bump_1d, TestPlanLayout.POINTS, qcfg)
        for f in ("ptr", "rptr", "rcol", "rval", "wk", "pm2", "ext_values"):
            with pytest.raises(ValueError):
                getattr(plan, f).flat[0] = 0

    def test_plan_fields_are_frozen_and_meta_per_call(self, spec_1d, u_bump_1d, qcfg):
        # no field of a plan can be assigned; the next build on the rows keeps its own meta
        a = build_plan(spec_1d, u_bump_1d, TestPlanLayout.POINTS, qcfg)
        for name in ("sums", "tail_bound", "wk"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, name, None)
        a.meta["dim"] = 0
        b = build_plan(spec_1d, u_bump_1d, TestPlanLayout.POINTS, qcfg)
        assert b.rcol is a.rcol
        assert b.meta["dim"] == 1

    def test_miss_releases_held_rows(self, spec_1d, u_bump_1d, qcfg):
        plan = build_plan(spec_1d, u_bump_1d, TestPlanLayout.POINTS, qcfg)
        refs = [weakref.ref(plan.rcol), weakref.ref(plan.R), weakref.ref(quadrature._held[1])]
        del plan
        gc.collect()
        assert all(r() is not None for r in refs)  # held by the memo alone
        build_plan(spec_1d, u_bump_1d, TestPlanLayout.POINTS[:2], qcfg)
        gc.collect()
        assert all(r() is None for r in refs)
