import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracvexp as fx
from fracvexp import lemma_suite as ls
from fracvexp.cli import _write_json
from fracvexp.config import RunConfig


def witness(t1, t2, p):
    """(alpha, c0, bound ok, residual, margin) per pair, through the suite's own
    helpers: the witness, the case constant at p_minus = p_plus = p, the c0
    bound and the mean-value residual."""
    t1, t2, p = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (t1, t2, p))
    alpha = ls.witness_alpha(t1, t2, p)
    alpha_pow = np.abs(alpha) ** (p - 2.0)
    c0 = ls._c0(*ls._pairs(t1, t2)[:2], p, p)
    ok, margin = ls._c0_margin(alpha_pow, np.maximum(np.abs(t1), np.abs(t2)) ** (p - 2.0), c0)
    return alpha, c0, ok, ls._mv_residual(t1, t2, p, alpha_pow), margin


#: (t1, t2) edge pairs: equal ends, t1 = -t2, a zero end, 2a == b (the close
#: case's edge), the smallest subnormal and a slope that cancels
EDGE_PAIRS = [(0.3, 0.3), (-0.7, -0.7), (0.0, 0.0), (-0.4, 0.4), (0.9, -0.9),
              (0.0, 0.6), (-0.2, 0.0), (0.25, 0.5), (-0.6, -0.3), (0.0, 5e-324),
              (5e-324, 1e-323), (-5e-324, 5e-324), (5e-324, 0.75),
              (-1.0, -0.9999999999999999), (0.5, 0.5000001), (0.2, -0.9)]
EDGE_P = [np.nextafter(2.0, 3.0), 2.5, 3.0, 5.75]


def edge_grid():
    """Every edge pair at every exponent, as three flat arrays."""
    t1, t2 = np.array(EDGE_PAIRS).T
    return np.repeat(t1, len(EDGE_P)), np.repeat(t2, len(EDGE_P)), np.tile(EDGE_P, len(t1))


def slope_by_case(t1, t2, p):
    """The slope's three closed forms, each evaluated on its own pairs only;
    0 for equal magnitudes of one sign."""
    a, b = np.minimum(np.abs(t1), np.abs(t2)), np.maximum(np.abs(t1), np.abs(t2))
    opp = t1 * t2 < 0.0
    close, far = ~opp & (2.0 * a >= b) & (a < b), ~opp & (2.0 * a < b)
    out = np.zeros(t1.shape)
    ao, bo, po = a[opp], b[opp], p[opp]
    out[opp] = (ao ** (po - 1.0) + bo ** (po - 1.0)) / (ao + bo)
    bc, pc = b[close], p[close]
    q = (bc - a[close]) / bc
    out[close] = bc ** (pc - 2.0) * -np.expm1((pc - 1.0) * np.log1p(-q)) / q
    af, bf, pf = a[far], b[far], p[far]
    out[far] = (bf ** (pf - 1.0) - af ** (pf - 1.0)) / (bf - af)
    return out


def c0_by_case(opposite, close, p_minus, p_plus):
    """The three case constants, each evaluated on its own samples only."""
    far = ~opposite & ~close
    out = np.empty(close.shape)
    out[close] = 1.0 / 2.0 ** (p_plus[close] - 2.0)
    out[opposite] = 1.0 / (2.0 * (p_plus[opposite] - 1.0))
    out[far] = (2.0 ** (p_minus[far] - 1.0) - 1.0) / ((p_plus[far] - 1.0) * 2.0 ** p_minus[far])
    return out


class TestMeanValueAlpha:
    def test_degenerate_equal_endpoints(self):
        alpha, c0, ok, resid, _ = witness(0.3, 0.3, 3.0)
        assert alpha[0] == 0.3 and resid[0] == 0.0
        assert ok[0] and c0[0] <= 1.0

    def test_quadratic_case(self):
        # f(t) = t^2 on positives: 4 - 1 = 2 alpha, alpha = 1.5
        alpha, c0, ok, _, _ = witness(1.0, 2.0, 3.0)
        assert alpha[0] == pytest.approx(1.5, abs=1e-9)
        assert ls._pairs(1.0, 2.0)[:2] == (False, True)  # same sign, close
        assert ok[0] and c0[0] == pytest.approx(0.5)
        assert abs(alpha[0]) >= 0.5 * 2.0 - 1e-12

    def test_cubic_opposite_sign(self):
        # f(t) = t^3: 2 = 3 alpha^2 * 2, |alpha| = 1/sqrt(3)
        alpha, c0, ok, _, _ = witness(-1.0, 1.0, 4.0)
        assert abs(alpha[0]) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)
        assert ls._pairs(-1.0, 1.0)[:2] == (True, False)
        assert ok[0] and c0[0] == pytest.approx(1.0 / 6.0)

    def test_alpha_between_endpoints(self):
        rng = np.random.default_rng(5)
        t1, t2 = rng.uniform(-1, 1, (2, 200))
        p = rng.uniform(2.001, 6.0, 200)
        alpha, _, _, resid, _ = witness(t1, t2, p)
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
        alpha, _, ok, _, _ = witness(t1, t2, p)
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
        assert ls._pairs(1.0, 2.0)[:2] == (False, True)
        assert ls._pairs(-1.0, 1.0)[:2] == (True, False)
        assert ls._pairs(0.1, 2.0)[:2] == (False, False)
        assert ls._pairs(0.0, 2.0)[:2] == (False, False)  # zero counts as far
        assert ls._pairs(0.0, 5e-324)[:2] == (False, False)
        assert ls._pairs(5e-324, 0.0)[:2] == (False, False)

    def test_constants(self):
        assert ls._c0(False, True, 3.0, 3.0) == pytest.approx(0.5)
        assert ls._c0(True, False, 3.0, 4.0) == pytest.approx(1.0 / 6.0)
        assert ls._c0(False, False, 3.0, 3.0) == pytest.approx((4.0 - 1.0) / (2.0 * 8.0))

    def test_slope_matches_case_forms_on_edge_pairs(self):
        # the cases picked by np.where equal the closed forms on their own pairs
        # bit for bit, alone or in a batch
        t1, t2, p = edge_grid()
        expect = slope_by_case(t1, t2, p)
        np.testing.assert_array_equal(ls._mv_slope(t1, t2, p), expect)
        alone = [ls._mv_slope(*(np.array([v]) for v in trio))[0] for trio in zip(t1, t2, p)]
        np.testing.assert_array_equal(alone, expect)
        assert np.all(np.isfinite(expect))
        assert np.all(expect[t1 == t2] == 0.0)

    def test_c0_matches_case_forms_on_edge_pairs(self):
        t1, t2, p = edge_grid()
        opposite, close = ls._pairs(t1, t2)[:2]
        assert opposite.any() and close.any() and (~opposite & ~close).any()
        p_minus = p - 0.25 * (p - 2.0)  # p_minus < p_plus reaches the far form's mix
        for pm in (p, p_minus):
            expect = c0_by_case(opposite, close, pm, p)
            np.testing.assert_array_equal(ls._c0(opposite, close, pm, p), expect)
            # scalar calls keep working and give the same constants
            scalar = [ls._c0(bool(o), bool(c), float(a), float(b))
                      for o, c, a, b in zip(opposite, close, pm, p)]
            assert all(np.ndim(v) == 0 for v in scalar)
            np.testing.assert_array_equal(np.array(scalar, dtype=float), expect)
        assert ls._c0(opposite[:, None], close[:, None], p[:, None], p[:, None]).shape == (
            t1.size, 1)


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


def whole_batch_mean_value(n, seed, p_range=(2.0, 6.0), spot_checks=200):
    """`run_mean_value_suite` as one pass over the whole batch, unsliced."""
    rng = np.random.default_rng(seed)
    t1 = rng.uniform(-1.0, 1.0, n)
    t2 = rng.uniform(-1.0, 1.0, n)
    p = rng.uniform(np.nextafter(p_range[0], p_range[1]), p_range[1], n)
    alpha, _, ok, resid, margin = witness(t1, t2, p)
    ok &= resid <= ls.MV_RESIDUAL_TOL
    idx = rng.choice(n, size=min(spot_checks, n), replace=False)
    a = np.abs(alpha[idx])
    slope = ls._mv_slope(t1[idx], t2[idx], p[idx])
    t_max = np.maximum(np.abs(t1[idx]), np.abs(t2[idx]))
    ref = np.array([ls._brentq_alpha(*args) for args in
                    zip(slope.tolist(), t_max.tolist(), p[idx].tolist())])
    spot_fail = int(np.count_nonzero(np.abs(ref - a) > 1e-9 * np.maximum(1.0, a)))
    failures = int(np.count_nonzero(~ok)) + spot_fail
    return ls.SuiteReport("mean_value_c0", failures == 0, n, failures,
                          float(np.min(margin)), float(np.max(resid)), seed,
                          {"spot_checks": int(len(idx)), "spot_failures": spot_fail})


def whole_batch_gprime(m, p_plus, n, seed):
    """`run_gprime_suite` as one pass over the whole batch, unsliced."""
    p_floor = 1.0 - 1.0 / math.log(m)
    rng = np.random.default_rng(seed)
    t0 = rng.uniform(-m, m, n)
    t0 = np.where(t0 == 0.0, m / 2.0, t0)
    p1 = rng.uniform(p_floor, p_plus, n)
    g = ls.gprime_margin(t0, p1, rng.uniform(p1, p_plus))
    failures = int(np.count_nonzero(g < -1e-12 * np.maximum(1.0, np.abs(g))))
    return ls.SuiteReport("gprime_sign", failures == 0, n, failures, float(np.min(g)), 0.0,
                          seed, {"m": m, "p_floor": p_floor, "p_plus": p_plus})


CHUNK_SIZES = [1, ls.SUITE_CHUNK - 1, ls.SUITE_CHUNK, ls.SUITE_CHUNK + 1, 3 * ls.SUITE_CHUNK + 5]


class TestChunkedSuites:
    """The suites check their samples in slices of SUITE_CHUNK and report
    exactly (exact floats, counts, spot checks) what one whole-batch pass
    does, with temporaries that do not grow with n."""

    @pytest.mark.parametrize("n", CHUNK_SIZES)
    def test_mean_value_suite_is_chunk_invariant(self, n):
        rep = ls.run_mean_value_suite(n, seed=11, p_range=(2.0, 7.0))
        assert rep == whole_batch_mean_value(n, 11, (2.0, 7.0))
        assert rep.passed and rep.count == n

    @pytest.mark.parametrize("n", CHUNK_SIZES)
    def test_failures_add_up_across_chunks(self, n, monkeypatch):
        # a witness off by 1e-6 where t1 > 0 fails the residual tolerance there:
        # the counts, the extreme margins and which spot checks fail (so which
        # samples the generator picked) still match the whole batch.  The
        # slices and `witness_alpha` both take their witnesses from `_witness`
        closed_form = ls._witness
        monkeypatch.setattr(ls, "_witness", lambda t1, t2, p, pairs: closed_form(t1, t2, p, pairs)
                            * np.where(t1 > 0.0, 1.0 + 1e-6, 1.0))
        rep = ls.run_mean_value_suite(n, seed=5, spot_checks=20)
        assert rep == whole_batch_mean_value(n, 5, spot_checks=20)
        if n > 1:
            assert 0 < rep.detail["spot_failures"] < 20 and rep.failures > 0

    @pytest.mark.parametrize("n", CHUNK_SIZES)
    def test_gprime_suite_is_chunk_invariant(self, n):
        rep = ls.run_gprime_suite(0.55, 6.5, n, seed=13)
        assert rep == whole_batch_gprime(0.55, 6.5, n, 13)
        assert rep.passed and rep.count == n

    @pytest.mark.parametrize("suite", ["mean_value", "gprime"])
    def test_peak_memory_is_bounded(self, suite):
        # the drawn samples (3 arrays of n floats) plus one slice's work: at
        # most 5 arrays of n floats, where one whole-batch pass took 12
        # (mean-value) and 8 (gprime)
        n = 200_000
        tracemalloc.start()
        try:
            if suite == "mean_value":
                ls.run_mean_value_suite(n, seed=2)
            else:
                ls.run_gprime_suite(0.5, 6.0, n, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 8 * n


#: sha256 of `certify_lemmas` at the default config (its seed and sample
#: counts), written by the report writer, per dimension; recorded at commit
#: 97128ca, before `f_power` stopped gathering its nonzero samples
DEFAULT_REPORT = {
    1: "d91ccb9e2bf6f7bfc31cda51a1f4a6a98d123991325d1c75afe78fa0c80ffd1c",
    2: "8191be57850692112eee78ca6f5e0f5363259a3d32e86559384732f00ef6d931",
}


@pytest.mark.parametrize("dim", sorted(DEFAULT_REPORT))
def test_default_report_is_pinned(dim, tmp_path):
    # the report `reproduce-all` writes to lemmas.json, less the run stamp:
    # 100,000 mean-value and g' samples, where the report goldens run 500
    cfg = RunConfig.load()
    cfg.override("exponent", "dimension", dim)
    lem = cfg.section("lemmas")
    report = ls.certify_lemmas(cfg.exponent_spec(), seed=cfg.seed, **lem)
    assert report["passed"]
    _write_json(tmp_path / "lemmas.json", report)
    digest = hashlib.sha256((tmp_path / "lemmas.json").read_bytes()).hexdigest()
    assert digest == DEFAULT_REPORT[dim]
