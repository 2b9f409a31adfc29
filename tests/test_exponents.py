import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracvexp as fx
from fracvexp.exponents import T_MAX_DEFAULT, example_i_q, example_ii_q


class TestValidateP1:
    def test_example_i_passes(self):
        spec = fx.make_spec("example_i", dimension=2, order=0.4, m=0.5)
        rep = fx.validate_p1(spec)
        assert rep.passed, rep.checks
        # 1 - 1/ln(0.5) ~ 2.4427 > 2, so the codomain condition holds
        assert spec.p_minus == pytest.approx(2.442695040888963, abs=1e-12)

    def test_constant_q3_passes(self):
        spec = fx.make_spec("constant", dimension=2, order=0.5, m=0.5, value=3.0)
        assert fx.validate_p1(spec).passed

    def test_sp_plus_failure(self):
        spec = fx.make_spec("constant", dimension=2, order=0.9, m=0.5, value=3.0)
        rep = fx.validate_p1(spec)
        assert not rep.passed
        bad = {c.name: c.ok for c in rep.checks}
        assert not bad["sp_plus_below_dimension"]
        assert bad["codomain_gt_2"]

    def test_declared_extrema_mismatch_fails(self):
        spec = fx.ExponentSpec(1, 0.3, lambda t: np.full_like(np.asarray(t, float), 3.0),
                               2.5, 3.5, 0.5)
        rep = fx.validate_p1(spec)
        assert not rep.passed

    def test_nonfinite_q_raises(self):
        spec = fx.ExponentSpec(1, 0.3, lambda t: np.where(np.asarray(t) > 50.0, np.inf, 3.0),
                               3.0, 3.0, 0.5)
        with pytest.raises(fx.EvaluationError):
            fx.validate_p1(spec)

    def test_sample_count_precondition(self, spec_1d):
        with pytest.raises(fx.PreconditionError):
            fx.validate_p1(spec_1d, sample_count=1)


class TestValidateP2:
    def test_example_ii_passes(self):
        spec = fx.make_spec("example_ii", dimension=1, order=0.3, m=0.5)
        rep = fx.validate_p2(spec)
        assert rep.passed

    def test_constant_passes(self):
        spec = fx.make_spec("constant", dimension=1, order=0.3, m=0.5, value=3.0)
        assert fx.validate_p2(spec).passed

    def test_decreasing_fails_with_witness(self):
        spec = fx.ExponentSpec(
            1, 0.3, lambda t: 3.0 - np.minimum(np.asarray(t, float), 1.0),
            2.0, 3.0, 0.5)
        rep = fx.validate_p2(spec)
        assert not rep.passed
        bad = next(c for c in rep.checks if c.name == "q_nondecreasing")
        assert not bad.ok and bad.witness is not None and bad.witness < 1.0

    def test_example_i_fails_nondecreasing(self):
        # the arctan branch drops below the linear branch past t = 1;
        # only t -> t^Q(t) stays monotone
        spec = fx.make_spec("example_i", dimension=2, order=0.4, m=0.5)
        rep = fx.validate_p2(spec)
        names = {c.name: c.ok for c in rep.checks}
        assert not names["q_nondecreasing"]
        assert names["t_pow_q_strictly_increasing"]


class TestEvalP:
    def test_zero_distance(self, spec_1d):
        assert fx.eval_p(spec_1d, [0.3], [0.3]) == pytest.approx(spec_1d.p_minus)

    def test_constant(self, const3_1d):
        assert fx.eval_p(const3_1d, [0.1], [-2.0]) == 3.0

    def test_example_ii_closed_form(self):
        # hand evaluation: 1/(1+e^-1) + 1/2 + 1
        spec = fx.make_spec("example_ii", dimension=1, order=0.3, m=math.exp(-1.0))
        expected = 1.0 / (1.0 + math.exp(-1.0)) + 1.5
        assert fx.eval_p(spec, [0.0], [1.0]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(2.2311, abs=1e-4)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
    def test_symmetry_exact(self, x0, x1, y0, y1):
        spec = fx.make_spec("example_ii", dimension=2, order=0.5, m=0.5)
        assert fx.eval_p(spec, [x0, x1], [y0, y1]) == fx.eval_p(spec, [y0, y1], [x0, x1])

    def test_bounds_on_random_pairs(self, spec_2d):
        rng = np.random.default_rng(11)
        x = rng.uniform(-3, 3, (10_000, 2))
        y = rng.uniform(-3, 3, (10_000, 2))
        d = np.linalg.norm(x - y, axis=1)
        q = np.asarray(spec_2d.q(d))
        assert np.all(q >= spec_2d.p_minus - 1e-12)
        assert np.all(q <= spec_2d.p_plus + 1e-12)

    def test_power_map_strictly_increasing_random(self, spec_1d):
        rng = np.random.default_rng(12)
        t = np.sort(rng.uniform(1e-6, T_MAX_DEFAULT, (10_000, 2)), axis=1)
        mask = t[:, 0] < t[:, 1]
        g = np.asarray(spec_1d.q(t)) * np.log(t)
        assert np.all(g[mask, 0] < g[mask, 1])


class TestConfigLoading:
    def test_table_kind(self):
        spec = fx.spec_from_config({
            "dimension": 1, "order": 0.2, "m": 0.5,
            "q_kind": "table", "q_params": "0:2.5, 1:2.8, 10:3.0"})
        assert spec.p_minus == 2.5 and spec.p_plus == 3.0
        assert fx.eval_p(spec, [0.0], [0.5]) == pytest.approx(2.65)
        assert fx.validate(spec, sample_count=500, t_max=10.0).passed

    def test_roundtrip_kinds(self):
        for kind in ("constant", "example_i", "example_ii"):
            spec = fx.spec_from_config({
                "dimension": 2, "order": 0.4, "m": 0.5,
                "q_kind": kind, "q_params": "3.0"})
            assert spec.dimension == 2

    def test_unknown_kind(self):
        with pytest.raises(fx.PreconditionError):
            fx.spec_from_config({"dimension": 1, "order": 0.3, "m": 0.5,
                                 "q_kind": "mystery"})


class TestSpecInvariants:
    def test_order_range(self):
        with pytest.raises(fx.PreconditionError):
            fx.make_spec("constant", dimension=1, order=1.5, m=0.5, value=3.0)

    def test_m_range(self):
        with pytest.raises(fx.PreconditionError):
            fx.make_spec("constant", dimension=1, order=0.5, m=1.5, value=3.0)

    def test_example_profiles_match_reference(self):
        m = 0.5
        c = 1.0 - 1.0 / math.log(m)
        qi = example_i_q(m)
        assert float(qi(0.5)) == pytest.approx(0.5 + c)
        assert float(qi(2.0)) == pytest.approx(math.atan(2.0) - math.pi / 4 + c)
        assert float(qi(1.0)) == pytest.approx(1.0 + c)
        qii = example_ii_q(m)
        assert float(qii(0.0)) == pytest.approx(1.0 - 1.0 / math.log(m))
