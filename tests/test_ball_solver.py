import dataclasses
import json

import numpy as np
import pytest

import fracvexp as fx
from fracvexp import _backend, quadrature
from fracvexp import ball_solver as bs
from fracvexp.cli import main


@pytest.fixture(scope="module")
def manufactured(spec_model, qcfg):
    u_star, h = bs.manufacture(spec_model, n=101, amplitude=0.5, cfg=qcfg)
    problem = bs.ProblemSpec(exponent=spec_model, rhs_mode=bs.MANUFACTURED,
                             h_field=h, domain="ball_1d")
    return u_star, problem


class TestManufacture:
    def test_profile_values(self, manufactured):
        u_star, _ = manufactured
        nodes = u_star.nodes()[:, 0]
        assert u_star.values[np.argmin(np.abs(nodes))] == pytest.approx(0.5)
        assert np.all(u_star.values[np.abs(nodes) >= 1.0] == 0.0)
        assert np.all(u_star.values >= 0.0) and np.max(u_star.values) <= 0.5

    def test_even_symmetry_exact(self, manufactured):
        u_star, _ = manufactured
        assert np.array_equal(u_star.values, u_star.values[::-1])

    @pytest.mark.parametrize("spec_name, n", [("spec_model", 101), ("spec_2d", 15)])
    def test_rhs_is_the_operator_on_u_star(self, request, spec_name, n, qcfg):
        # one r_eff per grid: h and an evaluation of L(u*) on the same nodes agree bit for bit
        spec = request.getfixturevalue(spec_name)
        u_star, h = bs.manufacture(spec, n=n, amplitude=0.5, cfg=qcfg)
        mask = bs.interior_mask(u_star)
        np.testing.assert_array_equal(
            h[mask], fx.eval_plap_field(spec, u_star, u_star.nodes()[mask], qcfg))

    def test_amplitude_range(self, spec_model):
        with pytest.raises(fx.PreconditionError):
            bs.manufacture(spec_model, n=101, amplitude=1.5)


class TestResidual:
    def test_zero_solution_power_mode(self, spec_model, qcfg):
        u = fx.SampledFunction(np.zeros(101), (101,), 1.5)
        problem = bs.ProblemSpec(exponent=spec_model, q_function=2.0,
                                 rhs_mode=bs.POWER, domain="ball_1d")
        res = bs.residual(problem, u, qcfg)
        assert np.all(res == 0.0)

    def test_manufactured_exact_at_star(self, manufactured, qcfg):
        u_star, problem = manufactured
        res = bs.residual(problem, u_star, qcfg)
        assert np.max(np.abs(res)) <= 1e-13

    def test_perturbation_shows(self, manufactured, qcfg):
        u_star, problem = manufactured
        nodes = u_star.nodes()[:, 0]
        pert = 0.02 * np.maximum(0.0, 1.0 - nodes ** 2)
        res = bs.residual(problem, u_star.with_values(u_star.values + pert), qcfg)
        assert np.max(np.abs(res)) > 1e-3


class TestProblemSpec:
    def test_mode_requirements(self, spec_model):
        with pytest.raises(fx.PreconditionError):
            bs.ProblemSpec(exponent=spec_model, rhs_mode=bs.MANUFACTURED)
        with pytest.raises(fx.PreconditionError):
            bs.ProblemSpec(exponent=spec_model, rhs_mode=bs.POWER)
        with pytest.raises(fx.PreconditionError):
            bs.ProblemSpec(exponent=spec_model, rhs_mode=bs.GENERAL_F)

    def test_unknown_domain_and_mode(self, spec_model, spec_2d):
        with pytest.raises(fx.PreconditionError, match="domain"):
            bs.ProblemSpec(exponent=spec_model, q_function=2.0, domain="ball_3d")
        # a domain must be the exponent's ball
        with pytest.raises(fx.PreconditionError, match="domain 'ball_2d'"):
            bs.ProblemSpec(exponent=spec_model, q_function=2.0, domain="ball_2d")
        with pytest.raises(fx.PreconditionError, match="domain 'ball_1d'"):
            bs.ProblemSpec(exponent=spec_2d, q_function=2.0, domain="ball_1d")
        assert bs.ProblemSpec(exponent=spec_2d, q_function=2.0, domain="ball_2d").dim == 2
        with pytest.raises(fx.PreconditionError, match="rhs_mode"):
            bs.ProblemSpec(exponent=spec_model, q_function=2.0, rhs_mode="linear")

    def test_dimension_read_from_the_exponent(self, spec_2d, qcfg):
        u_star, h = bs.manufacture(spec_2d, n=15, amplitude=0.5, cfg=qcfg)
        problem = bs.ProblemSpec(exponent=spec_2d, rhs_mode=bs.MANUFACTURED, h_field=h)
        assert problem.dim == 2 and problem.domain == "ball_2d"
        rep = bs.solve(problem, u_star.with_values(0.9 * u_star.values), qcfg,
                       tol_res=1e-4, u_star=u_star)
        assert rep.converged and rep.iterations >= 1

    def test_general_f_sign_check(self, spec_model):
        with pytest.raises(fx.PreconditionError):
            bs.ProblemSpec(exponent=spec_model, rhs_mode=bs.GENERAL_F,
                           f=lambda t: t, f_prime=lambda t: np.ones_like(t))
        bs.ProblemSpec(exponent=spec_model, rhs_mode=bs.GENERAL_F,
                       f=lambda t: 0.2 - 0.2 * t,
                       f_prime=lambda t: np.full_like(np.asarray(t, float), -0.2))

    def test_rhs_derivative(self, spec_model):
        pts = np.zeros((4, 1))
        u = np.array([0.0, 0.1, 0.4, 0.7])
        power = bs.ProblemSpec(exponent=spec_model, q_function=2.5, rhs_mode=bs.POWER)
        np.testing.assert_allclose(power.rhs_derivative(pts, u, None), 2.5 * u ** 1.5)
        h = np.arange(10.0)
        made = bs.ProblemSpec(exponent=spec_model, rhs_mode=bs.MANUFACTURED, h_field=h)
        assert np.all(made.rhs_derivative(pts, u, np.arange(4)) == 0.0)
        # general f: f' when given, a difference quotient of f otherwise
        f = bs.ProblemSpec(exponent=spec_model, rhs_mode=bs.GENERAL_F,
                           f=lambda t: 0.2 - 0.3 * t ** 3)
        np.testing.assert_allclose(f.rhs_derivative(pts, u, None), -0.9 * u ** 2, atol=1e-9)
        fp = bs.ProblemSpec(exponent=spec_model, rhs_mode=bs.GENERAL_F, f=lambda t: -t,
                            f_prime=lambda t: np.full_like(np.asarray(t, float), -1.0))
        np.testing.assert_array_equal(fp.rhs_derivative(pts, u, None), -1.0)

    def test_q_above_one(self, spec_model):
        problem = bs.ProblemSpec(exponent=spec_model, q_function=0.5,
                                 rhs_mode=bs.POWER, domain="ball_1d")
        with pytest.raises(fx.PreconditionError):
            problem.q_values(np.zeros((3, 1)))


class TestSolve:
    def test_manufactured_recovery(self, manufactured, qcfg):
        u_star, problem = manufactured
        nodes = u_star.nodes()[:, 0]
        pert = 0.05 * np.sin(3 * nodes) * np.maximum(0.0, 1.0 - nodes ** 2)
        guess = u_star.with_values(np.clip(u_star.values + pert, 0.0, 1.0 - 1e-3))
        rep = bs.solve(problem, guess, qcfg, tol_res=1e-4, u_star=u_star)
        assert rep.converged
        err = np.max(np.abs(rep.solution.values - u_star.values))
        assert err <= 5e-3
        # double-evaluation check of the reported residual, on rows built anew
        quadrature._drop_rows()
        res = bs.residual(problem, rep.solution, qcfg)
        assert np.max(np.abs(res)) == pytest.approx(rep.final_residual_sup, rel=1e-12)
        assert np.max(np.abs(res)) <= 1e-4

    def test_one_kernel_pass_per_trial(self, manufactured, qcfg, monkeypatch):
        # every line-search trial is one pass over the node terms; the accepted
        # trial's sums give the history row, and the guess's pass is
        # build_plan's pass, handed back as plan.sums, so `applies` counts
        # every pass
        u_star, problem = manufactured
        nodes = u_star.nodes()[:, 0]
        pert = 0.05 * np.sin(3 * nodes) * np.maximum(0.0, 1.0 - nodes ** 2)
        guess = u_star.with_values(np.clip(u_star.values + pert, 0.0, 1.0 - 1e-3))
        passes, apply_plan = [], _backend.apply_plan
        for module in (bs, quadrature):
            monkeypatch.setattr(module, "apply_plan",
                                lambda *args: passes.append(1) or apply_plan(*args))
        rep = bs.solve(problem, guess, qcfg, tol_res=1e-4, u_star=u_star)
        assert rep.converged
        assert len(passes) == rep.applies
        assert rep.applies == rep.iterations + 1  # no trial is rejected on this case

    def test_zero_guess_power_mode_trivial_limit(self, spec_model, qcfg):
        problem = bs.ProblemSpec(exponent=spec_model, q_function=2.0,
                                 rhs_mode=bs.POWER, domain="ball_1d")
        rep = bs.solve(problem, fx.SampledFunction(np.zeros(101), (101,), 1.5), qcfg)
        assert rep.converged and rep.trivial_limit
        assert rep.iterations == 0

    def test_range_invariant_and_exterior_zero(self, manufactured, qcfg):
        u_star, problem = manufactured
        rep = bs.solve(problem, u_star, qcfg, tol_res=1e-6, max_iters=200)
        vals = rep.solution.values
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0 - 1e-3)
        nodes = rep.solution.nodes()[:, 0]
        assert np.all(vals[np.abs(nodes) >= 1.0] == 0.0)

    def test_guess_preconditions(self, manufactured, qcfg):
        u_star, problem = manufactured
        bad = fx.SampledFunction(u_star.values + 0.6, u_star.shape, u_star.extent,
                                 exterior_rule="zero_outside_box")
        with pytest.raises(fx.PreconditionError):
            bs.solve(problem, bad, qcfg)  # values exceed 1 - eta
        flat = fx.SampledFunction.from_function(lambda p: 0.0 * p[:, 0], 1.5, 11, 2)
        with pytest.raises(fx.PreconditionError, match="dimension"):
            bs.solve(problem, flat, qcfg)  # a 2-d guess for the 1-d problem
        outside = fx.SampledFunction(np.full(u_star.values.size, 0.1), u_star.shape,
                                     u_star.extent, exterior_rule="zero_outside_box")
        with pytest.raises(fx.PreconditionError, match="vanish outside"):
            bs.solve(problem, outside, qcfg)

    def test_non_finite_residual_is_numeric_error(self, manufactured, qcfg):
        u_star, made = manufactured
        problem = bs.ProblemSpec(exponent=made.exponent, rhs_mode=bs.GENERAL_F,
                                 f=lambda t: np.full(np.shape(t), np.nan))
        with pytest.raises(fx.NumericError, match="non-finite residual"):
            bs.solve(problem, u_star, qcfg)

    def test_symmetry_preserved_each_step(self, manufactured, qcfg):
        u_star, problem = manufactured
        nodes = u_star.nodes()[:, 0]
        sym_pert = 0.04 * np.cos(2 * nodes) * np.maximum(0.0, 1.0 - nodes ** 2)
        guess = u_star.with_values(np.clip(u_star.values + sym_pert, 0.0, 1.0 - 1e-3))
        for iters in (3, 9, 27):
            rep = bs.solve(problem, guess, qcfg, tol_res=1e-14, max_iters=iters)
            v = rep.solution.values
            np.testing.assert_allclose(v, v[::-1], atol=1e-13)

    def test_error_monotone_over_final_checkpoints(self, manufactured, qcfg):
        u_star, problem = manufactured
        nodes = u_star.nodes()[:, 0]
        pert = 0.05 * np.sin(3 * nodes) * np.maximum(0.0, 1.0 - nodes ** 2)
        guess = u_star.with_values(np.clip(u_star.values + pert, 0.0, 1.0 - 1e-3))
        rep = bs.solve(problem, guess, qcfg, tol_res=1e-4,
                       checkpoint_every=10, u_star=u_star)
        errs = [row[2] for row in rep.history[-10:]]
        assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))

    def test_general_f_converges(self, spec_model, qcfg):
        # f = 0.3 from reproduce-all's asymmetric guess: the discrete equation
        # is fixed through the solve, so Newton converges in a few steps
        u = fx.SampledFunction.from_function(bs.bump_profile(0.5, spec_model.order),
                                             1.5, 101, 1)
        nodes = u.nodes()[:, 0]
        pert = 0.05 * np.sin(3 * nodes) * np.maximum(0.0, 1.0 - nodes ** 2)
        guess = u.with_values(np.clip(u.values + pert, 0.0, 1.0 - 1e-3))
        problem = bs.ProblemSpec(exponent=spec_model, rhs_mode=bs.GENERAL_F,
                                 f=lambda t: np.full(np.shape(t), 0.3))
        rep = bs.solve(problem, guess, qcfg, tol_res=1e-10)
        assert rep.converged and rep.final_residual_sup <= 1e-10, rep.message
        assert rep.iterations <= 10, rep.iterations

    def test_manufactured_recovery_p_below_two(self, qcfg):
        # m = 0.3 puts p_minus at 1.83: |t|^(p-2) is unbounded at t = 0; the
        # C7 gates still hold
        spec = fx.make_spec("example_ii", dimension=1, order=0.5, m=0.3)
        assert spec.p_minus < 2.0
        u_star, h = bs.manufacture(spec, n=101, amplitude=0.5, cfg=qcfg)
        problem = bs.ProblemSpec(exponent=spec, rhs_mode=bs.MANUFACTURED, h_field=h)
        nodes = u_star.nodes()[:, 0]
        pert = 0.05 * np.sin(3 * nodes) * np.maximum(0.0, 1.0 - nodes ** 2)
        guess = u_star.with_values(np.clip(u_star.values + pert, 0.0, 1.0 - 1e-3))
        rep = bs.solve(problem, guess, qcfg, tol_res=1e-4, u_star=u_star)
        assert rep.converged
        assert np.all((rep.solution.values >= 0.0)
                      & (rep.solution.values <= 1.0 - 1e-3))  # solve's default eta
        assert np.max(np.abs(rep.solution.values - u_star.values)) <= 1e-6
        tail = rep.history[-10:]
        assert all(b[1] <= a[1] + 1e-15 for a, b in zip(tail, tail[1:]))
        quadrature._drop_rows()  # an independent build, not the solver's rows
        res = bs.residual(problem, rep.solution, qcfg)
        assert np.max(np.abs(res)) == pytest.approx(rep.final_residual_sup, rel=1e-12)

    def test_order_0_8_stalls_at_n101(self, qcfg):
        # the current outcome, pinned so that a fix flips it openly: at s = 0.8 the
        # quadratic interpolant's kink (ROADMAP item 6) leaves the n=101 solve
        # without a descent step, far from u*; n=201 converges
        # (TestReproduceAll::test_order_0_8_passes)
        spec = fx.make_spec("example_ii", dimension=1, order=0.8, m=0.5)
        u_star, h = bs.manufacture(spec, n=101, amplitude=0.5, cfg=qcfg)
        problem = bs.ProblemSpec(exponent=spec, rhs_mode=bs.MANUFACTURED, h_field=h)
        nodes = u_star.nodes()[:, 0]
        pert = 0.05 * np.sin(3 * nodes) * np.maximum(0.0, 1.0 - nodes ** 2)
        guess = u_star.with_values(np.clip(u_star.values + pert, 0.0, 1.0 - 1e-3))
        rep = bs.solve(problem, guess, qcfg, tol_res=1e-10, u_star=u_star)
        assert not rep.converged
        assert rep.message == "line search found no decrease"
        assert rep.final_residual_sup > 1e-3
        assert np.max(np.abs(rep.solution.values - u_star.values)) > 1e-3

    def test_nonconvergence_reported_honestly(self, manufactured, qcfg):
        u_star, problem = manufactured
        rep = bs.solve(problem, fx.SampledFunction(np.zeros(101), (101,), 1.5), qcfg,
                       tol_res=1e-12, max_iters=5)
        assert not rep.converged
        assert rep.message != ""
        assert rep.final_residual_sup > 1e-12


class TestReportShape:
    # solve.json is the report's fields like every report, except that the
    # solution grid, saved to u.csv, is replaced by its shape and extent
    KEYS = ({f.name for f in dataclasses.fields(bs.SolveReport)} - {"solution"}) | {
        "grid", "mode", "sup_error_vs_target", "config_hash", "seed", "version"}

    def test_solve_json_keys(self, tmp_path):
        cfg = tmp_path / "config.ini"
        cfg.write_text(f"[run]\noutput_dir = {tmp_path}\n[solver]\nnodes = 101\n")
        assert main(["solve", "--config", str(cfg)]) == 0
        rep = json.loads((tmp_path / "solve.json").read_text())
        assert set(rep) == self.KEYS
        assert rep["grid"]["shape"] == [101]

    def test_reproduce_all_writes_the_same_solve_json_keys(self, tmp_path):
        # one schema: reproduce-all's manufactured solve used to write no `mode`
        cfg = tmp_path / "config.ini"
        cfg.write_text(f"[run]\noutput_dir = {tmp_path}\n[solver]\nnodes = 61\ntol_res = 1e-3\n"
                       "[lemmas]\nn_mean_value = 500\nn_kernel = 500\nn_gprime = 500\n"
                       "[sweep]\ncount = 21\ndirections = 2\n")
        assert main(["reproduce-all", "--config", str(cfg)]) in (0, 2)
        rep = json.loads((tmp_path / "solve.json").read_text())
        assert set(rep) == self.KEYS and rep["mode"] == "manufactured"
