import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracvexp as fx
from fracvexp import lemma_suite as ls


def witness(t1, t2, p):
    """(alpha, c0, bound ok, residual) per pair, through the suite's own path:
    the witness, the case constant at p_minus = p_plus = p, the c0 bound and
    the mean-value residual."""
    t1, t2, p = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (t1, t2, p))
    alpha = ls.witness_alpha(t1, t2, p)
    c0 = ls._c0(*ls._case_masks(t1, t2), p, p)
    ok, _ = ls._c0_margin(alpha, t1, t2, p, c0)
    return alpha, c0, ok, ls._mv_residual(t1, t2, p, alpha)


class TestMeanValueAlpha:
    def test_degenerate_equal_endpoints(self):
        alpha, c0, ok, resid = witness(0.3, 0.3, 3.0)
        assert alpha[0] == 0.3 and resid[0] == 0.0
        assert ok[0] and c0[0] <= 1.0

    def test_quadratic_case(self):
        # f(t) = t^2 on positives: 4 - 1 = 2 alpha, alpha = 1.5
        alpha, c0, ok, _ = witness(1.0, 2.0, 3.0)
        assert alpha[0] == pytest.approx(1.5, abs=1e-9)
        assert ls._case_masks(1.0, 2.0) == (False, True)  # same sign, close
        assert ok[0] and c0[0] == pytest.approx(0.5)
        assert abs(alpha[0]) >= 0.5 * 2.0 - 1e-12

    def test_cubic_opposite_sign(self):
        # f(t) = t^3: 2 = 3 alpha^2 * 2, |alpha| = 1/sqrt(3)
        alpha, c0, ok, _ = witness(-1.0, 1.0, 4.0)
        assert abs(alpha[0]) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)
        assert ls._case_masks(-1.0, 1.0) == (True, False)
        assert ok[0] and c0[0] == pytest.approx(1.0 / 6.0)

    def test_alpha_between_endpoints(self):
        rng = np.random.default_rng(5)
        t1, t2 = rng.uniform(-1, 1, (2, 200))
        p = rng.uniform(2.001, 6.0, 200)
        alpha, _, _, resid = witness(t1, t2, p)
        assert np.all(np.minimum(t1, t2) - 1e-12 <= alpha)
        assert np.all(alpha <= np.maximum(t1, t2) + 1e-12)
        assert np.all(resid <= ls.MV_RESIDUAL_TOL)

    def test_closed_form_magnitude(self):
        # |alpha| = (slope/(p-1))^(1/(p-2)) for p away from 2
        rng = np.random.default_rng(9)
        t1, t2 = rng.uniform(-2, 2, (2, 100))
        p = rng.uniform(2.5, 5.0, 100)
        assert np.all(t1 != t2)
        slope = (fx.f_power(t2, p) - fx.f_power(t1, p)) / (t2 - t1)
        expect = (slope / (p - 1.0)) ** (1.0 / (p - 2.0))
        np.testing.assert_allclose(np.abs(witness(t1, t2, p)[0]), expect, rtol=1e-8, atol=1e-10)

    def test_edge_pairs_and_batch_independence(self):
        # edge pairs (equal ends, an underflowing f, a cancelling slope, p next
        # to 2 where the raw closed form leaves the bracket) and seeded draws
        # meet the bound inside the bracket, and a pair's witness alone equals
        # its witness inside the batch bit for bit
        pinned = np.array([(0.3, 0.3, 3.0), (-0.7, -0.7, 2.5), (0.0, 5e-324, 3.0),
                           (-1.0, -0.9999999999999999, 2.75),
                           (0.2, -0.9, np.nextafter(2.0, 3.0)),
                           (0.5, 0.5000001, np.nextafter(2.0, 3.0))]).T
        rng = np.random.default_rng(21)
        n = 20_000
        draws = np.array([rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n),
                          rng.uniform(np.nextafter(2.0, 6.0), 6.0, n)])
        t1, t2, p = np.concatenate([draws, pinned], axis=1)
        alpha, _, ok, _ = witness(t1, t2, p)
        alone = np.array([ls.witness_alpha(*(np.array([v]) for v in pair))[0]
                          for pair in zip(t1, t2, p)])
        np.testing.assert_array_equal(alone, alpha)
        assert np.all(ok)
        assert np.all((np.minimum(t1, t2) <= alpha) & (alpha <= np.maximum(t1, t2)))

    @settings(max_examples=150, deadline=None)
    @given(st.floats(-1, 1), st.floats(-1, 1),
           st.floats(2.01, 6.0))
    @example(-1.0, -0.9999999999999999, 2.75)  # near-equal pair: slope cancellation
    @example(-1.0, -1.6777253686898257e-293, 3.0)  # far pair: one log1p form overflows here
    def test_bound_property(self, t1, t2, p):
        assert witness(t1, t2, p)[2][0]


class TestClassification:
    def test_cases(self):
        # (opposite, close): same sign and close, opposite signs, far apart
        assert ls._case_masks(1.0, 2.0) == (False, True)
        assert ls._case_masks(-1.0, 1.0) == (True, False)
        assert ls._case_masks(0.1, 2.0) == (False, False)
        assert ls._case_masks(0.0, 2.0) == (False, False)  # zero counts as far
        assert ls._case_masks(0.0, 5e-324) == (False, False)
        assert ls._case_masks(5e-324, 0.0) == (False, False)

    def test_constants(self):
        assert ls._c0(False, True, 3.0, 3.0) == pytest.approx(0.5)
        assert ls._c0(True, False, 3.0, 4.0) == pytest.approx(1.0 / 6.0)
        assert ls._c0(False, False, 3.0, 3.0) == pytest.approx((4.0 - 1.0) / (2.0 * 8.0))


class TestKernelMonotone:
    def test_closed_form_example(self):
        # 0.5^-2.5 - 1.5^-2.5
        c3 = fx.make_spec("constant", dimension=1, order=0.5, m=0.5, value=3.0)
        plane = fx.axis_plane(1, 0.0)
        res = ls.check_kernel_monotone(c3, plane, [-0.5], [-1.0])
        expected = 0.5 ** -2.5 - 1.5 ** -2.5
        assert res.ok and res.kappa == pytest.approx(expected, rel=1e-12)
        assert res.kappa == pytest.approx(5.294, abs=1e-3)

    def test_boundary_fixed_point(self, spec_1d):
        plane = fx.axis_plane(1, -0.25)
        res = ls.check_kernel_monotone(spec_1d, plane, [-0.5], [-0.25])
        assert res.boundary and res.kappa == 0.0

    def test_halfspace_preconditions(self, spec_1d):
        plane = fx.axis_plane(1, 0.0)
        with pytest.raises(fx.PreconditionError):
            ls.check_kernel_monotone(spec_1d, plane, [0.5], [-1.0])

    def test_suite(self, spec_2d):
        rep = ls.run_kernel_monotone_suite(spec_2d, n=4000, seed=3)
        assert rep.passed and rep.failures == 0 and rep.min_margin > 0.0


class TestCxPositivity:
    def test_constant_far_field_limit_one(self, const3_1d):
        rep = ls.check_cx_positive(const3_1d, [2.0])
        assert rep.positive
        assert rep.far_field_ratio == pytest.approx(1.0, abs=1e-6)

    def test_near_boundary_sample(self, spec_1d):
        rep = ls.check_cx_positive(spec_1d, [2.0], samples=4000)
        assert rep.positive and rep.infimum > 0.0

    def test_excludes_origin(self, spec_1d):
        with pytest.raises(fx.PreconditionError):
            ls.check_cx_positive(spec_1d, [0.0])


class TestGprime:
    def test_margin_formula(self):
        # p1 = p2 gives exactly zero margin
        assert ls.gprime_margin(0.3, 3.0, 3.0) == 0.0
        assert ls.gprime_margin(0.3, 2.7, 3.4) > 0.0

    def test_suite(self):
        rep = ls.run_gprime_suite(0.5, 6.0, n=50_000, seed=1)
        assert rep.passed and rep.min_margin >= -1e-12

    def test_m_validation(self):
        with pytest.raises(fx.PreconditionError):
            ls.run_gprime_suite(1.5, 6.0)


class TestSuites:
    def test_mean_value_suite_seeded(self):
        rep = ls.run_mean_value_suite(20_000, seed=7)
        assert rep.passed and rep.failures == 0
        assert rep.max_residual <= ls.MV_RESIDUAL_TOL
        assert rep.detail == {"spot_checks": 200, "spot_failures": 0}
        rep2 = ls.run_mean_value_suite(20_000, seed=7)
        assert rep2.min_margin == rep.min_margin  # reproducible

    def test_spot_checks_are_independent(self, monkeypatch):
        # the brentq reference must catch a witness that the suite's own path
        # would accept as its own
        closed_form = ls.witness_alpha
        monkeypatch.setattr(ls, "witness_alpha", lambda *a: closed_form(*a) * (1.0 + 1e-6))
        rep = ls.run_mean_value_suite(2000, seed=7, spot_checks=50)
        assert rep.detail == {"spot_checks": 50, "spot_failures": 50}

    def test_certify_bundle(self, spec_1d):
        out = ls.certify_lemmas(spec_1d, seed=3, n_mean_value=5000,
                                n_kernel=2000, n_gprime=5000)
        assert out["passed"]
        assert {s["name"] for s in out["suites"]} == {
            "mean_value_c0", "kernel_monotone", "gprime_sign"}
        assert out["cx_infimum"]["positive"]
