"""The three benchmark workloads, their inputs, output checks and digests.

Each workload has three parts:

* ``prepare(fx, seed, size)`` builds the inputs from the seed.  It only
  samples functions and reads configs; it makes no call into the
  operators, so plan building is never paid before timing starts.
* ``run(fx, inputs, probe)`` is the timed section.  It calls the package
  through module attributes looked up at call time, so the trace wrappers
  installed on those attributes see every call.
* ``check(fx, inputs, out, probe)`` returns one ``Op`` per checked
  operation, reusing the gates the package itself applies, the main
  numeric outputs (for the digests), and the pass's ``solve_s``.

``fx`` is a namespace of freshly imported ``fracvexp`` modules (see
``run.fresh_import``); ``size`` holds config overrides that shrink a
workload for the smoke tests.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: C7 gate on the manufactured solve: sup error versus u*.
SUP_ERROR_GATE = 5e-3


@dataclass
class Op:
    """One checked operation: its name, whether it passed, and why not.

    ``known_defect`` marks a failure of the 2-d moving-planes diagnostic,
    which reads the exactly sampled radial u* as asymmetric off the axes
    (w compares an interpolated reflected value with a raw node value).
    It still counts in ``failed``; it does not make ``correct`` false.
    """

    name: str
    ok: bool
    detail: str = ""
    known_defect: bool = False


def digest(arr) -> dict:
    """Checksum and max-abs value of a float64 output array."""
    a = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    return {"sha256": hashlib.sha256(a.tobytes()).hexdigest()[:16],
            "max_abs": float(np.max(np.abs(a))) if a.size else 0.0,
            "size": int(a.size)}


def c7_gate(report, u_star, tol_res: float) -> Op:
    """C7: converged, final residual within tol_res, sup error within 5e-3."""
    err = float(np.max(np.abs(report.solution.values - u_star.values)))
    ok = (bool(report.converged) and report.final_residual_sup <= tol_res
          and err <= SUP_ERROR_GATE)
    return Op("solve", ok, f"converged={report.converged} "
              f"residual={report.final_residual_sup:.3g} sup_error={err:.3g}")


def _config(fx, seed: int, overrides: dict):
    """The default config with the seed and {(section, key): value} set."""
    cfg = fx.config.RunConfig.load(None)
    cfg.override("run", "seed", seed)
    for (section, key), value in overrides.items():
        cfg.override(section, key, value)
    return cfg


def _bump(fx, cfg):
    """The sampled radial u* = a (1-|x|^2)_+^s, without any operator call."""
    spec, sol = cfg.exponent_spec(), cfg.section("solver")
    return fx.grids.SampledFunction.from_function(
        fx.ball_solver.bump_profile(sol["amplitude"], spec.order),
        sol["extent"], sol["nodes"], spec.dimension)


def _odd_perturbation(pts, amplitude: float, angle: float = 0.0):
    """reproduce-all's asymmetric perturbation a sin(3 x.e)(1-|x|^2)_+,
    along e = (cos angle, sin angle) in 2-d."""
    e = np.array([np.cos(angle), np.sin(angle)])[:pts.shape[1]]
    r2 = np.sum(pts ** 2, axis=1)
    return amplitude * np.sin(3.0 * (pts @ e)) * np.maximum(0.0, 1.0 - r2)


# ---------------------------------------------------------------------------
# reproduce-1d: the command users run, end to end
# ---------------------------------------------------------------------------

class Reproduce1D:
    name = "reproduce-1d"
    why = ("cli.run_reproduce_all on the default 1-d config at n=101: the command "
           "users run; the only workload with the lemma suites and report I/O")
    #: cli bindings whose results and times the untraced run captures
    probes = ("manufacture", "solve", "eval_plap_field", "sweep")
    # n=101, not the default 201: at about 5 s a pass a run holds 7-13 passes,
    # so its median rides out short swings in the host's speed (README, "Why
    # n=101 and n=15")
    config = {("solver", "nodes"): 101}

    def prepare(self, fx, seed: int, size: dict, workdir: Path):
        cfg = _config(fx, seed, {**self.config, **size})
        # run_reproduce_all creates the directory; check() removes it
        return {"cfg": cfg, "outdir": workdir / f"reproduce-{os.getpid()}"}

    def run(self, fx, inp, probe):
        return {"summary": fx.cli.run_reproduce_all(inp["cfg"], inp["outdir"])}

    def check(self, fx, inp, out, probe):
        ops = [Op(s["name"], bool(s["passed"])) for s in out["summary"]["steps"]]
        (u_star, h), = probe.results["manufacture"]
        report, = probe.results["solve"]
        ops.append(c7_gate(report, u_star, inp["cfg"].section("solver")["tol_res"]))
        shutil.rmtree(inp["outdir"], ignore_errors=True)
        outputs = {"h": h, "solution": report.solution.values,
                   "auto_mask_field": probe.results["eval_plap_field"][0],
                   "sweep_min_w": [min(r.min_w) for r in probe.results["sweep"]]}
        return ops, outputs, probe.seconds("manufacture", "solve")


# ---------------------------------------------------------------------------
# solve-2d: manufactured solve, apply dominates
# ---------------------------------------------------------------------------

class Solve2D:
    name = "solve-2d"
    why = ("manufacture + solve in 2-d at n=15 from a perturbed guess: plan "
           "apply dominates; bypasses the MP checks and the sweeps")
    probes = ()
    # n=15: at about 8 s a pass a run holds 5-8 passes (README, "Why n=101
    # and n=15")
    config = {("exponent", "dimension"): 2, ("solver", "nodes"): 15}

    def prepare(self, fx, seed: int, size: dict, workdir: Path):
        cfg = _config(fx, seed, {**self.config, **size})
        sol = cfg.section("solver")
        u_star = _bump(fx, cfg)
        # the seed turns the odd perturbation; the problem is radial, so the
        # solve costs about the same in every direction
        angle = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
        pert = _odd_perturbation(u_star.nodes(), sol["perturbation"], angle)
        guess = u_star.with_values(np.clip(u_star.values + pert, 0.0, 1.0 - sol["eta"]))
        return {"cfg": cfg, "guess": guess}

    def run(self, fx, inp, probe):
        t0 = time.perf_counter()
        cfg = inp["cfg"]
        spec, qcfg, sol = cfg.exponent_spec(), cfg.quadrature(), cfg.section("solver")
        bs = fx.ball_solver
        u_star, h = bs.manufacture(spec, sol["nodes"], sol["extent"],
                                   sol["amplitude"], cfg=qcfg)
        problem = bs.ProblemSpec(exponent=spec, rhs_mode=bs.MANUFACTURED,
                                 h_field=h, domain="ball_2d")
        report = bs.solve(problem, inp["guess"], qcfg, tol_res=sol["tol_res"],
                          max_iters=sol["max_iters"], eta=sol["eta"],
                          checkpoint_every=sol["checkpoint_every"], u_star=u_star)
        return {"u_star": u_star, "h": h, "report": report,
                "solve_seconds": time.perf_counter() - t0}

    def check(self, fx, inp, out, probe):
        tol = inp["cfg"].section("solver")["tol_res"]
        ops = [c7_gate(out["report"], out["u_star"], tol)]
        outputs = {"h": out["h"], "solution": out["report"].solution.values}
        return ops, outputs, out["solve_seconds"]


# ---------------------------------------------------------------------------
# diagnose-2d: reproduce-all steps 4-5 on the sampled u*, build dominates
# ---------------------------------------------------------------------------

class Diagnose2D:
    name = "diagnose-2d"
    why = ("reproduce-all steps 4-5 (sweeps, MP checks, probe) on sampled u* "
           "in 2-d at n=41 with no solve: plan build and plan memory dominate")
    probes = ()
    config = {("exponent", "dimension"): 2, ("solver", "nodes"): 41}

    def prepare(self, fx, seed: int, size: dict, workdir: Path):
        cfg = _config(fx, seed, {**self.config, **size})
        sol, sw = cfg.section("solver"), cfg.section("sweep")
        mp = fx.moving_planes
        u_star = _bump(fx, cfg)
        shift = np.array([0.2, 0.0])
        profile = fx.ball_solver.bump_profile(sol["amplitude"], cfg.exponent_spec().order)
        translated = fx.grids.SampledFunction.from_function(
            lambda p: profile(p - shift[None, :]), sol["extent"], sol["nodes"], 2,
            exterior_rule=fx.grids.ZERO_BOX)
        nodes = u_star.nodes()
        r2 = np.sum(nodes ** 2, axis=1)
        peak = float(np.max(u_star.values))
        dip = u_star.values - 1.2 * peak * np.exp(-8.0 * r2) * np.maximum(0.0, 1.0 - r2)
        asym = np.clip(u_star.values - _odd_perturbation(nodes, sol["perturbation"]),
                       0.0, 0.55)
        return {"cfg": cfg, "u_star": u_star, "translated": translated,
                "dip": u_star.with_values(dip), "asym": u_star.with_values(asym),
                "directions": mp.sweep_directions(2, sw["directions"], seed),
                "control_directions": mp.sweep_directions(2, 2, seed),
                "grid": np.linspace(-1.0, 0.0, sw["count"]),
                "m_wide": min(1.0 - 1e-6, peak * 1.2 + 0.05)}

    def run(self, fx, inp, probe):
        cfg, u = inp["cfg"], inp["u_star"]
        spec, qcfg = cfg.exponent_spec(), cfg.quadrature()
        sw, mp_cfg = cfg.section("sweep"), cfg.section("mp")
        mp, mx = fx.moving_planes, fx.max_principles
        plane = fx.geometry.axis_plane
        sweep_kw = {"tol": sw["tol"], "refine": sw["refine"], "radial_tol": sw["radial_tol"]}
        tols = {"hyp_tol": mp_cfg["hyp_tol"], "concl_tol": mp_cfg["concl_tol"]}
        out = {
            "sweeps": [mp.sweep(u, d, inp["grid"], **sweep_kw) for d in inp["directions"]],
            "control": [mp.sweep(inp["translated"], d, inp["grid"], **sweep_kw)
                        for d in inp["control_directions"]],
        }
        # step 5 is the part that calls the operator: solve_s on this workload
        t0 = time.perf_counter()
        mask = fx.ball_solver.interior_mask(u)
        field = fx.nonlocal_operator.eval_plap_field(spec, u, u.nodes()[mask], qcfg)
        auto = np.zeros(u.values.size, bool)
        auto[np.nonzero(mask)[0]] = field >= -tols["hyp_tol"]
        out["field"] = field
        out["mp1"] = mx.check_strong_mp(spec, u, auto, qcfg, **tols)
        out["mp1_bad"] = mx.check_strong_mp(spec, inp["dip"], mask, qcfg, **tols)
        wide = {"m_bound": inp["m_wide"], "cfg": qcfg, **tols}
        out["mp2"] = mx.check_antisym_mp(spec, u, plane(2, 0.0), **wide)
        out["mp2_diag"] = mx.check_antisym_mp(spec, u, plane(2, -0.5), **wide)
        out["mp2_bad"] = mx.check_antisym_mp(spec, inp["asym"], plane(2, -0.1), **wide)
        pl = plane(2, -0.5)
        xs = [(pl.offset - 2.0 ** -k) * pl.e for k in range(3, 11)]
        out["probe"] = mx.boundary_estimate_probe(spec, u, [pl] * len(xs), xs, qcfg)
        out["mp_seconds"] = time.perf_counter() - t0
        return out

    def check(self, fx, inp, out, probe):
        mx = fx.max_principles
        concl_tol = inp["cfg"].section("mp")["concl_tol"]
        ops = []
        for k, rep in enumerate(out["sweeps"]):
            # a radial u* must read symmetric in every direction
            ok = bool(rep.symmetric_verdict and rep.monotone_verdict)
            ops.append(Op(f"sweep_{k}", ok, f"min_w={min(rep.min_w):.3g}",
                          known_defect=not ok))
        ops.append(Op("sweep_translated_control",
                      not all(r.symmetric_verdict for r in out["control"])))
        mp1_bad, mp2_bad = out["mp1_bad"], out["mp2_bad"]
        ops += [
            Op("mp_strong", out["mp1"].verdict == mx.HOLDS, out["mp1"].verdict),
            Op("mp_strong_control", mp1_bad.verdict == mx.VIOLATED
               and mp1_bad.diagnostics.get("eval_at_min", 0.0) < 0.0, mp1_bad.verdict),
            Op("mp_antisym", out["mp2"].verdict == mx.HOLDS, out["mp2"].verdict),
            Op("mp_antisym_diagnostic",
               out["mp2_diag"].diagnostics["min_w"] >= -concl_tol,
               f"min_w={out['mp2_diag'].diagnostics['min_w']:.3g}"),
            Op("mp_antisym_control", mp2_bad.verdict == mx.VIOLATED
               and mp2_bad.diagnostics.get("gamma", 0.0) < 0.0, mp2_bad.verdict),
            Op("boundary_probe", bool(out["probe"].ok), f"margin={out['probe'].margin:.3g}"),
        ]
        outputs = {"auto_mask_field": out["field"],
                   "sweep_min_w": [min(r.min_w) for r in out["sweeps"]]}
        return ops, outputs, out["mp_seconds"]


WORKLOADS = {w.name: w for w in (Reproduce1D(), Solve2D(), Diagnose2D())}
