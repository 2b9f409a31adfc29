"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria run at their stated tolerances and runtime budgets; the model
configuration is the sigmoid exponent profile with m = 0.5 at order 0.5
(1-d solve) and 0.3 (1-d operator studies, fully inside the hypothesis
envelope).
"""

import json
import time

import numpy as np
import pytest

import fracvexp as fx
from fracvexp import ball_solver as bs
from fracvexp import lemma_suite as ls
from fracvexp import max_principles as mp
from fracvexp import moving_planes as mvp
from fracvexp._backend import apply_plan
from fracvexp.cli import main as cli_main
from fracvexp.quadrature import build_plan

from oracles import brute_force_plap, constant_p_plap

SEED = 20260810


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def model_solve(qcfg):
    """Criterion-7 artifacts shared by criteria 8 and 9."""
    spec = fx.make_spec("example_ii", dimension=1, order=0.5, m=0.5)
    u_star, h = bs.manufacture(spec, n=201, amplitude=0.5, cfg=qcfg)
    problem = bs.ProblemSpec(exponent=spec, rhs_mode=bs.MANUFACTURED,
                             h_field=h, domain="ball_1d")
    nodes = u_star.nodes()[:, 0]
    pert = 0.05 * np.sin(3.0 * nodes) * np.maximum(0.0, 1.0 - nodes ** 2)
    guess = u_star.with_values(np.clip(u_star.values + pert, 0.0, 1.0 - 1e-3))
    t0 = time.monotonic()
    rep = bs.solve(problem, guess, qcfg, tol_res=1e-4, max_iters=50_000,
                   checkpoint_every=25, u_star=u_star)
    return spec, u_star, rep, time.monotonic() - t0


def test_c1_operator_oracle_and_crosscheck(spec_1d, spec_2d, qcfg):
    t0 = time.monotonic()
    # -- 1-d: five smooth compactly supported functions on 401 nodes
    funcs_1d = [
        lambda x: np.maximum(0.0, 1.0 - x ** 2) ** 3,
        lambda x: np.where(np.abs(x) < 1.0,
                           np.exp(-1.0 / np.maximum(1e-300, 1.0 - x ** 2)), 0.0),
        lambda x: np.maximum(0.0, 1.0 - x ** 2) ** 2 * (1.0 + 0.5 * np.sin(2.0 * x)),
        lambda x: np.maximum(0.0, 1.0 - x ** 2) ** 3 * x,
        lambda x: np.sin(np.pi * x) * np.maximum(0.0, 1.0 - x ** 2) ** 2,
    ]
    worst_1d = 0.0
    for f in funcs_1d:
        u = fx.SampledFunction.from_function(lambda p: f(p[:, 0]), 1.5, 401, 1)
        for x in (-0.55, 0.1, 0.62):
            v = fx.eval_plap(spec_1d, u, [x], qcfg)
            orc = brute_force_plap(spec_1d, u, [x])
            assert abs(orc.value) > 0.05  # keep the relative bar meaningful
            worst_1d = max(worst_1d, abs(v - orc.value) / abs(orc.value))

    # -- 2-d: two functions on 101^2, 25 interior points off the lattice
    # (on lattice lines the uniform-mesh oracle itself stalls; those points
    # are covered by the adaptive constant-exponent path below)
    funcs_2d = [
        lambda p: 0.8 * np.maximum(0.0, 1.0 - (p ** 2).sum(1)) ** 3,
        lambda p: np.maximum(0.0, 1.0 - (p ** 2).sum(1)) ** 2 * (1.0 + 0.4 * p[:, 0]),
    ]
    xs = np.array([-0.433, -0.211, 0.007, 0.218, 0.427])
    pts = np.array([[a, b] for a in xs for b in xs])
    worst_2d = 0.0
    for f in funcs_2d:
        u2 = fx.SampledFunction.from_function(f, 1.5, 101, 2)
        vals = fx.eval_plap_field(spec_2d, u2, pts, qcfg)
        for x, v in zip(pts, vals):
            orc = brute_force_plap(spec_2d, u2, x)
            assert abs(orc.value) > 0.05
            worst_2d = max(worst_2d, abs(v - orc.value) / abs(orc.value))

    # -- constant-exponent cross-check: two independent code paths
    c1 = fx.make_spec("constant", dimension=1, order=0.3, m=0.5, value=3.0)
    u = fx.SampledFunction.from_function(
        lambda p: np.maximum(0.0, 1.0 - p[:, 0] ** 2) ** 3, 1.5, 401, 1)
    worst_x = 0.0
    for x in (0.25, 0.62, float(u.axis_nodes()[233])):
        v = fx.eval_plap(c1, u, [x], qcfg)
        ref = constant_p_plap(3.0, 0.3, u, [x])
        worst_x = max(worst_x, abs(v - ref) / abs(ref))
    c2 = fx.make_spec("constant", dimension=2, order=0.5, m=0.5, value=3.0)
    u2 = fx.SampledFunction.from_function(funcs_2d[0], 1.5, 101, 2)
    n1 = u2.axis_nodes()
    for x in ([float(n1[62]), float(n1[62])], [0.0, 0.0],
              [float(n1[43]), float(n1[61])]):
        v = fx.eval_plap(c2, u2, x, qcfg)
        ref = constant_p_plap(3.0, 0.5, u2, x)
        worst_x = max(worst_x, abs(v - ref) / abs(ref))

    elapsed = time.monotonic() - t0
    ok = worst_1d <= 1e-2 and worst_2d <= 1e-2 and worst_x <= 1e-3 and elapsed <= 300
    _report("C1 operator-vs-oracle",
            ok, f"1d {worst_1d:.2e}, 2d {worst_2d:.2e}, cross {worst_x:.2e}, {elapsed:.0f}s")


def test_c2_annihilation_and_oddness(spec_1d, qcfg):
    t0 = time.monotonic()
    # constants map to exactly zero (exterior rule returns the constant)
    for dim, n in ((1, 101), (2, 41)):
        const = fx.SampledFunction(
            np.full(n ** dim, 0.7), (n,) * dim, 1.5,
            exterior_rule=lambda p: np.full(len(np.atleast_2d(p)), 0.7))
        spec = spec_1d if dim == 1 else fx.make_spec("example_ii", 2, 0.5, 0.5)
        node = const.nodes()[n ** dim // 2]
        assert fx.eval_plap(spec, const, node, qcfg) == 0.0

    # oddness: 100 random value vectors x 10 points = 1000 cases on one plan
    rng = np.random.default_rng(SEED)
    base = fx.SampledFunction(np.zeros(81), (81,), 1.5, exterior_rule="zero_outside_box")
    pts = rng.uniform(-1.2, 1.2, (10, 1))
    plan = build_plan(spec_1d, base, pts, qcfg)
    worst_ulp = 0.0
    for _ in range(100):
        vals = rng.uniform(-0.8, 0.8, 81)
        a = apply_plan(plan, vals)
        b = apply_plan(plan, -vals)
        ulps = np.abs(a + b) / np.maximum(np.spacing(np.abs(a)), 5e-324)
        worst_ulp = max(worst_ulp, float(np.max(ulps)))
    # spot the public entry point as well
    for k in range(10):
        vals = rng.uniform(-0.8, 0.8, 81)
        u = base.with_values(vals)
        un = base.with_values(-vals)
        va = fx.eval_plap(spec_1d, u, [0.31], qcfg)
        vb = fx.eval_plap(spec_1d, un, [0.31], qcfg)
        assert va == -vb
    elapsed = time.monotonic() - t0
    ok = worst_ulp <= 8.0 and elapsed <= 60
    _report("C2 annihilation-and-oddness", ok,
            f"worst {worst_ulp:.1f} ulp over 1000 cases, {elapsed:.0f}s")


def test_c3_mean_value_suite():
    t0 = time.monotonic()
    rep = ls.run_mean_value_suite(100_000, seed=SEED, p_range=(2.0, 6.0))
    elapsed = time.monotonic() - t0
    ok = rep.passed and rep.max_residual <= 1e-10 and elapsed <= 30
    _report("C3 mean-value-constant", ok,
            f"{rep.count} witnesses, min margin {rep.min_margin:.2e}, "
            f"max residual {rep.max_residual:.1e}, {elapsed:.0f}s")


def test_c4_kernel_monotonicity(spec_1d, spec_2d):
    t0 = time.monotonic()
    r1 = ls.run_kernel_monotone_suite(spec_1d, 5_000, seed=SEED)
    r2 = ls.run_kernel_monotone_suite(spec_2d, 5_000, seed=SEED + 1)
    elapsed = time.monotonic() - t0
    ok = (r1.passed and r2.passed and r1.min_margin > 0 and r2.min_margin > 0
          and r1.detail["boundary_kappa"] == 0.0 and elapsed <= 30)
    _report("C4 kernel-monotonicity", ok,
            f"min kappa {min(r1.min_margin, r2.min_margin):.2e} over "
            f"{r1.count + r2.count} samples, boundary exact, {elapsed:.0f}s")


def test_c5_gprime_sign():
    t0 = time.monotonic()
    rep = ls.run_gprime_suite(m=0.5, p_plus=6.0, n=100_000, seed=SEED)
    elapsed = time.monotonic() - t0
    ok = rep.passed and rep.min_margin >= -1e-12 and elapsed <= 30
    _report("C5 gprime-sign", ok,
            f"{rep.count} samples, min margin {rep.min_margin:.2e}, {elapsed:.0f}s")


def _random_bump(rng, nodes):
    u = np.zeros_like(nodes)
    for _ in range(3):
        a = rng.uniform(0.1, 0.4)
        c = rng.uniform(-0.6, 0.6)
        w = rng.uniform(0.15, 0.4)
        u += a * np.exp(-((nodes - c) / w) ** 2)
    return u * np.maximum(0.0, 1.0 - nodes ** 2)


def test_c6_strong_maximum_principle(spec_1d, qcfg):
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    n = 101
    worst_ext = -np.inf
    for _ in range(20):
        grid = fx.SampledFunction(np.zeros(n), (n,), 1.5)
        nodes = grid.nodes()[:, 0]
        u = grid.with_values(_random_bump(rng, nodes))
        ext_pts = grid.nodes()[(np.abs(nodes) > 1.0) & (np.abs(nodes) < 1.47)]
        ext_vals = fx.eval_plap_field(spec_1d, u, ext_pts, qcfg)
        worst_ext = max(worst_ext, float(np.max(ext_vals)))
        mask = np.abs(nodes) < 1.0
        field = fx.eval_plap_field(spec_1d, u, grid.nodes()[mask], qcfg)
        auto = np.zeros(n, bool)
        auto[np.nonzero(mask)[0]] = field >= -mp.HYPOTHESIS_TOL
        rep = mp.check_strong_mp(spec_1d, u, auto, qcfg)
        assert rep.verdict == mp.HOLDS

    nodes = np.linspace(-1.5, 1.5, n)
    dip = (np.maximum(0.0, 1.0 - nodes ** 2) ** 2
           - 1.3 * np.exp(-8.0 * nodes ** 2) * np.maximum(0.0, 1.0 - nodes ** 2))
    bad = fx.SampledFunction(np.where(np.abs(nodes) < 1.0, dip, 0.0), (n,), 1.5)
    rep_bad = mp.check_strong_mp(spec_1d, bad, np.abs(nodes) < 1.0, qcfg)
    elapsed = time.monotonic() - t0
    ok = (worst_ext < 0.0 and rep_bad.verdict == mp.VIOLATED
          and rep_bad.diagnostics["eval_at_min"] < 0.0 and elapsed <= 120)
    _report("C6 strong-maximum-principle", ok,
            f"20 bumps hold, worst exterior eval {worst_ext:.3e}, "
            f"counterexample eval {rep_bad.diagnostics['eval_at_min']:.3f}, {elapsed:.0f}s")


def test_c7_manufactured_solve(model_solve):
    spec, u_star, rep, elapsed = model_solve
    err = float(np.max(np.abs(rep.solution.values - u_star.values)))
    tail = rep.history[-10:]
    residual_monotone = all(b[1] <= a[1] + 1e-15 for a, b in zip(tail, tail[1:]))
    in_range = np.all((rep.solution.values >= 0.0)
                      & (rep.solution.values <= 1.0 - 1e-3))  # solve's default eta
    ok = (rep.converged and err <= 5e-3 and residual_monotone
          and in_range and elapsed <= 120)
    _report("C7 manufactured-solve", ok,
            f"sup error {err:.2e}, residual {rep.final_residual_sup:.2e}, "
            f"{rep.iterations} iterations, {elapsed:.0f}s")


def test_c8_symmetry_diagnostic(model_solve):
    spec, u_star, rep, _ = model_solve
    t0 = time.monotonic()
    u_hat = rep.solution
    lam_ok, sym_ok = True, True
    for d in mvp.sweep_directions(1, 8, seed=SEED):
        sw = mvp.sweep(u_hat, d)
        sym_ok = sym_ok and sw.symmetric_verdict
        lam_ok = lam_ok and sw.lambda0_estimate >= -sw.tol_lambda
    radial = mvp.radial_profile_check(u_hat, [0.0], 1e-4)

    trans = fx.SampledFunction.from_function(
        lambda p: 0.5 * np.maximum(0.0, 1.0 - (p[:, 0] - 0.2) ** 2) ** 0.5,
        1.5, 201, 1, exterior_rule="zero_outside_box")
    t_reports = [mvp.sweep(trans, d) for d in ([1.0], [-1.0])]
    translated_fails = not all(r.symmetric_verdict for r in t_reports)
    elapsed = time.monotonic() - t0
    ok = sym_ok and lam_ok and radial.passed and translated_fails and elapsed <= 120
    _report("C8 moving-planes-symmetry", ok,
            f"8 directions symmetric, radial spread {radial.shell_spread:.1e}, "
            f"translated lambda0 {min(r.lambda0_estimate for r in t_reports):.2f}, {elapsed:.0f}s")


def test_c9_boundary_probe(model_solve, qcfg):
    spec, u_star, _, _ = model_solve
    t0 = time.monotonic()
    plane = fx.axis_plane(1, -0.5)
    xs = [np.array([plane.offset - 2.0 ** -k]) for k in range(3, 11)]
    probe = mp.boundary_estimate_probe(spec, u_star, [plane] * len(xs), xs, qcfg)
    elapsed = time.monotonic() - t0
    all_negative = all(r < 0.0 for r in probe.ratios)
    ok = probe.ok and all_negative and probe.margin > 0.0 and elapsed <= 60
    _report("C9 boundary-estimate", ok,
            f"8 ratios negative, margin {probe.margin:.3f}, {elapsed:.0f}s")


def test_c10_determinism(tmp_path):
    t0 = time.monotonic()
    outputs = []
    for label in ("A", "B"):
        out = tmp_path / label
        cfg = tmp_path / f"{label}.ini"
        cfg.write_text(f"[run]\nseed = {SEED}\noutput_dir = {out}\n")
        code = cli_main(["reproduce-all", "--config", str(cfg)])
        assert code == 0, f"reproduce-all run {label} failed"
        outputs.append(out)
    names = sorted(p.name for p in outputs[0].iterdir()
                   if p.name != "run_meta.json")
    diffs = [n for n in names
             if (outputs[0] / n).read_bytes() != (outputs[1] / n).read_bytes()]
    elapsed = time.monotonic() - t0
    ok = not diffs and elapsed <= 1800 and "summary.json" in names
    summary = json.loads((outputs[0] / "summary.json").read_text())
    _report("C10 determinism", ok,
            f"{len(names)} artifacts byte-identical, pipeline passed="
            f"{summary['passed']}, {elapsed:.0f}s for two runs")
    assert summary["passed"]
