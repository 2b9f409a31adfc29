"""Command-line front end: reproducible runs, JSON reports, plot CSVs.

Exit codes: 0 all checks pass, 2 a requested check failed, 3 precondition
violated, 4 numerical failure, 5 I/O failure, 64 usage error.  Reports are
byte-deterministic for a fixed config and seed; timestamps go to a
separate run_meta.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .ball_solver import (GENERAL_F, MANUFACTURED, POWER, ProblemSpec, bump_profile,
                          check_settings, interior_mask, manufacture, solve)
from .config import RunConfig
from .errors import EvaluationError, NumericError, PreconditionError, TailError
from .exponents import validate
from .geometry import PlaneGeometry, axis_plane
from .grids import SampledFunction, ZERO_BOX
from .lemma_suite import certify_lemmas
from .max_principles import (HOLDS, VIOLATED, boundary_estimate_probe,
                             check_antisym_mp, check_strong_mp)
from .moving_planes import sweep, sweep_directions
from .nonlocal_operator import eval_plap, eval_plap_field, tail_integrability_check

EXIT_OK = 0
EXIT_CHECK = 2
EXIT_PRECONDITION = 3
EXIT_NUMERIC = 4
EXIT_IO = 5
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to 64, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit_Usage(message)


class SystemExit_Usage(Exception):
    pass


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _json_value(obj):
    """`json.dumps` hook: a report dataclass is written as the dict of its fields
    (shallow, values as they are), a numpy scalar as its Python value; anything
    else (a value grid, say) is refused."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"cannot write a {type(obj).__name__} into a report")


def _write_json(path: Path, payload) -> None:
    """Write a report as strict JSON: a non-finite number becomes null, so no
    `NaN` or `Infinity` token (which RFC 8259 lacks) reaches the file."""
    text = json.dumps(payload, default=_json_value)
    plain = json.loads(text, parse_constant=lambda _: None)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(plain, sort_keys=True, indent=1, allow_nan=False) + "\n")


def _stamp(report, cfg: RunConfig) -> dict:
    """The report (a dict, or a dataclass as its fields) with the run's stamp."""
    if dataclasses.is_dataclass(report):
        report = _json_value(report)
    report.setdefault("config_hash", cfg.config_hash())
    report.setdefault("seed", cfg.seed)
    report.setdefault("version", __version__)
    return report


def _write_meta(outdir: Path, argv, t0: float) -> None:
    meta = {"created": datetime.datetime.now().isoformat(),
            "argv": list(argv), "runtime_s": time.time() - t0}
    _write_json(outdir / "run_meta.json", meta)


def _write_csv(path: Path, header: str, *columns) -> None:
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=header, comments="")


def write_sweep_csv(rep, path: Path) -> None:
    _write_csv(path, "lambda,min_w", rep.lambda_grid, rep.min_w)


def write_residual_csv(history, path: Path) -> None:
    steps, residuals, _ = zip(*history)  # rows: [step, sup residual, sup error]
    _write_csv(path, "iter,sup_residual", steps, residuals)


def write_profile_csv(u: SampledFunction, path: Path) -> None:
    r = np.linalg.norm(u.nodes(), axis=1)
    order = np.lexsort((np.arange(len(r)), r))
    _write_csv(path, "r,u", r[order], u.values[order])


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

def _parse_numbers(text: str, what: str = "point") -> np.ndarray:
    """Comma- or ';'-separated numbers; anything else is a precondition error."""
    try:
        return np.asarray([float(v) for v in text.replace(";", ",").split(",") if v != ""])
    except ValueError as exc:
        raise PreconditionError(f"cannot parse {what} {text!r}") from exc


def _parse_plane(text: str) -> PlaneGeometry:
    vals = _parse_numbers(text, "plane")
    if len(vals) < 2:
        raise PreconditionError("--plane needs direction components plus the offset")
    if not np.all(np.isfinite(vals[:-1])) or not np.any(vals[:-1] != 0.0):
        raise PreconditionError(f"--plane {text!r}: the direction must be finite and nonzero")
    return PlaneGeometry(tuple(vals[:-1] / np.linalg.norm(vals[:-1])), float(vals[-1]))


def _parse_directions(text: str, dim: int, seed: int) -> np.ndarray:
    if ";" not in text and "," not in text:
        try:
            count = int(text)
        except ValueError as exc:
            raise PreconditionError(f"cannot parse direction count {text!r}") from exc
        return sweep_directions(dim, count, seed)
    dirs = [_parse_numbers(chunk, "direction") for chunk in text.split(";")]
    if any(len(v) != dim or not np.any(v != 0.0) for v in dirs):
        raise PreconditionError(f"each direction in {text!r} must be {dim} numbers, not all 0")
    return np.asarray([v / np.linalg.norm(v) for v in dirs])


_EXPR_NAMES = {name: getattr(np, name) for name in
               ("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "arctan",
                "minimum", "maximum", "pi", "e")}


def _code_names(code) -> set:
    """Global and attribute names a code object (and any nested one) looks up."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _code_names(const)
    return names


def _expr_function(expr: str, variables: tuple):
    """Tiny numpy-expression evaluator for CLI-provided scalar fields.

    The expression may use `variables` and the names in `_EXPR_NAMES` only;
    a malformed expression or any other name is a usage error (exit 64), an
    expression that fails on the data is a precondition error (exit 3).
    """
    try:
        return _constant(float(expr))
    except ValueError:
        pass
    try:
        code = compile(expr, "<cli-expr>", "eval")
    except (SyntaxError, ValueError) as exc:
        raise SystemExit_Usage(f"cannot parse expression {expr!r}: {exc}") from exc
    unknown = _code_names(code) - set(_EXPR_NAMES) - set(variables)
    if unknown:
        raise SystemExit_Usage(
            f"expression {expr!r} uses unknown names {sorted(unknown)}; "
            f"allowed: {sorted(set(_EXPR_NAMES) | set(variables))}")

    def fn(arr):
        arr = np.atleast_2d(np.asarray(arr, dtype=float))
        env = dict(_EXPR_NAMES)
        if "t" in variables:
            env["t"] = arr.ravel()
        else:
            env["x"] = arr[:, 0]
            if arr.shape[1] > 1:
                env["y"] = arr[:, 1]
            env["r"] = np.linalg.norm(arr, axis=1)
        try:
            return np.asarray(eval(code, {"__builtins__": {}}, env), dtype=float)
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise PreconditionError(f"cannot evaluate expression {expr!r}: {exc}") from exc

    return fn


def _constant(v: float):
    def fn(arr):
        arr = np.atleast_2d(np.asarray(arr, dtype=float))
        return np.full(len(arr), v)
    return fn


def _load_function(path: str) -> SampledFunction:
    p = Path(path)
    if not p.exists():
        raise OSError(f"input file not found: {p}")
    return SampledFunction.load(p)


# ---------------------------------------------------------------------------
# subcommand handlers (return True iff every requested check passed)
# ---------------------------------------------------------------------------

def _cmd_validate(args, cfg: RunConfig, outdir: Path) -> bool:
    spec = cfg.exponent_spec()
    report = validate(spec, sample_count=1000)
    payload = _stamp(report, cfg)
    payload["spec"] = {"name": spec.name, "dimension": spec.dimension,
                       "order": spec.order, "p_minus": spec.p_minus,
                       "p_plus": spec.p_plus, "m": spec.m_bound}
    _write_json(outdir / "validate.json", payload)
    return report.passed


def _cmd_eval(args, cfg: RunConfig, outdir: Path) -> bool:
    u = _load_function(args.input)
    spec = cfg.exponent_spec()
    x = _parse_numbers(args.at)
    value = eval_plap(spec, u, x, cfg.quadrature())
    _write_json(outdir / "eval.json",
                _stamp({"point": x.tolist(), "value": value}, cfg))
    return True


def _cmd_tail_check(args, cfg: RunConfig, outdir: Path) -> bool:
    u = _load_function(args.input)
    spec = cfg.exponent_spec()
    x = _parse_numbers(args.at)
    radii = _parse_numbers(args.radii, "radii").tolist()
    rep = tail_integrability_check(spec, u, x, radii)
    _write_json(outdir / "tail.json", _stamp(rep, cfg))
    return True  # inconclusive is a reported outcome, not a failure


def _cmd_certify_lemmas(args, cfg: RunConfig, outdir: Path) -> bool:
    spec = cfg.exponent_spec()
    lem = cfg.section("lemmas")
    report = certify_lemmas(spec, seed=cfg.seed,
                            n_mean_value=lem["n_mean_value"],
                            n_kernel=lem["n_kernel"],
                            n_gprime=lem["n_gprime"])
    _write_json(outdir / "lemmas.json", _stamp(report, cfg))
    return bool(report["passed"])


def _cmd_check_mp(args, cfg: RunConfig, outdir: Path) -> bool:
    u = _load_function(args.input)
    spec = cfg.exponent_spec()
    qcfg = cfg.quadrature()
    mp_cfg = cfg.section("mp")
    tols = {"hyp_tol": mp_cfg["hyp_tol"], "concl_tol": mp_cfg["concl_tol"]}
    if not 0.0 < args.ball_radius < np.inf:  # checked for every theorem, read by 3.2
        raise PreconditionError(f"--ball-radius must be finite and > 0, got {args.ball_radius!r}")

    if args.theorem == "3.1":
        mask = (_auto_mask(spec, u, qcfg, tols["hyp_tol"]) if args.auto_mask
                else interior_mask(u))
        rep = check_strong_mp(spec, u, mask, qcfg, **tols)
        name = "mp_3_1.json"
    elif args.theorem == "3.2":
        plane = _parse_plane(args.plane)
        rep = check_antisym_mp(spec, u, plane, ball_radius=args.ball_radius,
                               cfg=qcfg, **tols)
        name = "mp_3_2.json"
    else:  # "3.5", the last of the parser's choices
        rep = _boundary_probe(spec, u, _parse_plane(args.plane), qcfg)
        name = "mp_3_5.json"

    _write_json(outdir / name, _stamp(rep, cfg))
    return rep.verdict == HOLDS


def _auto_mask(spec, u: SampledFunction, qcfg, hyp_tol: float) -> np.ndarray:
    """Interior ball nodes of u where the operator is at least -hyp_tol."""
    mask = interior_mask(u)
    field = eval_plap_field(spec, u, u.nodes()[mask], qcfg)
    auto = np.zeros(u.values.size, bool)
    auto[np.nonzero(mask)[0]] = field >= -hyp_tol
    return auto


def _boundary_probe(spec, u: SampledFunction, plane: PlaneGeometry, qcfg):
    """The 3.5 probe at (offset - 2^-k)·e, k = 3..10, approaching the plane."""
    xs = [(plane.offset - 2.0 ** -k) * plane.e for k in range(3, 11)]
    return boundary_estimate_probe(spec, u, [plane] * len(xs), xs, qcfg)


def _cmd_solve(args, cfg: RunConfig, outdir: Path) -> bool:
    spec = cfg.exponent_spec()
    sol = cfg.section("solver")
    n = sol["nodes"] if args.grid is None else args.grid
    mode = {"power": POWER, "manufactured": MANUFACTURED,
            "general-f": GENERAL_F}[args.mode]

    u_star = None
    if mode == MANUFACTURED:
        u_star, problem, guess = _manufactured_problem(cfg, spec, n)
    else:
        if mode == POWER:
            space = ("x", "r") if spec.dimension == 1 else ("x", "y", "r")
            problem = ProblemSpec(exponent=spec, rhs_mode=mode,
                                  q_function=_expr_function(args.q, space),
                                  domain=f"ball_{spec.dimension}d")
        else:
            if args.f_expr is None:
                raise SystemExit_Usage("--mode general-f needs --f-expr")
            problem = ProblemSpec(exponent=spec, rhs_mode=mode,
                                  f=_expr_function(args.f_expr, ("t",)),
                                  f_prime=_expr_function(args.fp_expr, ("t",))
                                  if args.fp_expr else None,
                                  domain=f"ball_{spec.dimension}d")
        guess = SampledFunction.from_function(
            bump_profile(sol["amplitude"], spec.order), sol["extent"], n,
            spec.dimension)
    report, _ = _solve_and_write(cfg, problem, guess, u_star, outdir,
                                 args.report or "solve.json", args.out or "u.csv",
                                 mode=args.mode)
    return report.converged


def _manufactured_problem(cfg: RunConfig, spec, n: int):
    """u*, its manufactured problem, and u* plus the odd perturbation as the guess.

    `spec` is the caller's `cfg.exponent_spec()`: a second call would make a
    spec that compares unequal, so the steps could not share plan rows."""
    sol = cfg.section("solver")
    check_settings(sol["tol_res"], sol["max_iters"], sol["eta"])  # before eta clips the guess
    u_star, h = manufacture(spec, n, sol["extent"], sol["amplitude"], cfg=cfg.quadrature())
    problem = ProblemSpec(exponent=spec, rhs_mode=MANUFACTURED, h_field=h,
                          domain=f"ball_{spec.dimension}d")
    guess = u_star.with_values(np.clip(
        u_star.values + _perturbation(u_star, sol["perturbation"]), 0.0, 1.0 - sol["eta"]))
    return u_star, problem, guess


def _solve_and_write(cfg: RunConfig, problem, guess, u_star, outdir: Path,
                     report_name: str = "solve.json", u_name: str = "u.csv", **extra):
    """Solve with the [solver] settings; write the report, u, residual history and
    profile.  Returns the report and, given u_star, the sup error to it."""
    sol = cfg.section("solver")
    report = solve(problem, guess, cfg.quadrature(), tol_res=sol["tol_res"],
                   max_iters=sol["max_iters"], eta=sol["eta"], u_star=u_star)
    payload = _stamp(report, cfg)
    u = payload.pop("solution")  # its values go to u.csv
    payload.update(grid={"shape": list(u.shape), "extent": u.extent}, **extra)
    sup_err = None
    if u_star is not None:
        sup_err = float(np.max(np.abs(report.solution.values - u_star.values)))
        payload["sup_error_vs_target"] = sup_err
    _write_json(outdir / report_name, payload)
    report.solution.save(outdir / u_name)
    write_residual_csv(report.history, outdir / "residual_history.csv")
    write_profile_csv(report.solution, outdir / "profile.csv")
    return report, sup_err


def _perturbation(u_star: SampledFunction, amplitude: float) -> np.ndarray:
    pts = u_star.nodes()
    r2 = np.sum(pts ** 2, axis=1)
    return amplitude * np.sin(3.0 * pts[:, 0]) * np.maximum(0.0, 1.0 - r2)


def _cmd_sweep(args, cfg: RunConfig, outdir: Path) -> bool:
    u = _load_function(args.input)
    sw = cfg.section("sweep")
    dirs = _parse_directions(args.directions, u.dim, cfg.seed)
    mode = args.mode
    grid = np.linspace(-1.0 if mode == "ball" else -u.extent, 0.0, sw["count"])
    reports = []
    ok = True
    for k, d in enumerate(dirs):
        rep = sweep(u, d, grid, tol=sw["tol"], mode=mode,
                    refine=sw["refine"], decay_tol=sw["decay_tol"],
                    radial_tol=sw["radial_tol"])
        reports.append(rep)
        write_sweep_csv(rep, outdir / f"sweep_{k}.csv")
        ok = ok and rep.symmetric_verdict and not rep.inconclusive
    payload = _stamp({"sweeps": reports, "all_symmetric": bool(ok)}, cfg)
    _write_json(outdir / (args.out or "sweep.json"), payload)
    return ok


# ---------------------------------------------------------------------------
# reproduce-all
# ---------------------------------------------------------------------------

def run_reproduce_all(cfg: RunConfig, outdir: Path) -> dict:
    """validate -> certify-lemmas -> manufactured solve -> sweeps -> MP
    checks; one summary with a pass flag per step."""
    spec = cfg.exponent_spec()
    qcfg = cfg.quadrature()
    sol = cfg.section("solver")
    sw = cfg.section("sweep")
    mp_cfg = cfg.section("mp")
    steps = []

    def step(name: str, passed: bool, detail: dict):
        steps.append({"name": name, "passed": bool(passed), "detail": detail})

    # 1. exponent hypotheses (sp+ < N is reported; the model config in 1-d
    #    deliberately runs with s p+ > 1, see README)
    vrep = validate(spec)
    core = [c for c in vrep.checks if c.name != "sp_plus_below_dimension"]
    _write_json(outdir / "validate.json", _stamp(vrep, cfg))
    step("validate_exponent", all(c.ok for c in core),
         {"full_p1_p2": vrep.passed,
          "sp_plus_below_dimension": next(c.ok for c in vrep.checks
                                          if c.name == "sp_plus_below_dimension")})

    # 2. lemma suites
    lem = cfg.section("lemmas")
    lrep = certify_lemmas(spec, seed=cfg.seed,
                          n_mean_value=lem["n_mean_value"],
                          n_kernel=lem["n_kernel"], n_gprime=lem["n_gprime"])
    _write_json(outdir / "lemmas.json", _stamp(lrep, cfg))
    step("certify_lemmas", lrep["passed"],
         {"suites": [s["name"] for s in lrep["suites"]]})

    # 3. manufactured solve from an asymmetrically perturbed guess
    u_star, problem, guess = _manufactured_problem(cfg, spec, sol["nodes"])
    srep, sup_err = _solve_and_write(cfg, problem, guess, u_star, outdir)
    step("manufactured_solve", srep.converged and sup_err <= 5e-3,
         {"sup_error": sup_err, "iterations": srep.iterations,
          "residual": srep.final_residual_sup})
    u_hat = srep.solution

    # 4. sweeps: recovered solution must read symmetric, a translate must not
    dirs = sweep_directions(spec.dimension, sw["directions"], cfg.seed)
    grid = np.linspace(-1.0, 0.0, sw["count"])
    sweeps = []
    sym_ok = True
    for k, d in enumerate(dirs):
        rep = sweep(u_hat, d, grid, tol=sw["tol"], refine=sw["refine"],
                    radial_tol=sw["radial_tol"])
        sweeps.append(rep)
        if k == 0:
            write_sweep_csv(rep, outdir / "sweep.csv")
        sym_ok = sym_ok and rep.symmetric_verdict and rep.monotone_verdict
    _write_json(outdir / "sweep.json",
                _stamp({"sweeps": sweeps, "all_symmetric": bool(sym_ok)}, cfg))
    step("sweep_recovered", sym_ok, {"directions": len(dirs)})

    shift = np.zeros(spec.dimension)
    shift[0] = 0.2
    trans = SampledFunction.from_function(
        lambda p: bump_profile(sol["amplitude"], spec.order)(p - shift[None, :]),
        sol["extent"], sol["nodes"], spec.dimension, exterior_rule=ZERO_BOX)
    t_reports = [sweep(trans, d, grid, tol=sw["tol"], refine=sw["refine"],
                       radial_tol=sw["radial_tol"])
                 for d in sweep_directions(spec.dimension, 2, cfg.seed)]
    trans_ok = not all(r.symmetric_verdict for r in t_reports)
    step("sweep_translated_control", trans_ok,
         {"lambda0": [r.lambda0_estimate for r in t_reports]})

    # 5. maximum principles
    tols = {"hyp_tol": mp_cfg["hyp_tol"], "concl_tol": mp_cfg["concl_tol"]}
    mp1 = check_strong_mp(spec, u_star, _auto_mask(spec, u_star, qcfg, tols["hyp_tol"]),
                          qcfg, **tols)
    nodes = u_star.nodes()
    dip = u_star.values - 1.2 * float(np.max(u_star.values)) * np.exp(
        -8.0 * np.sum(nodes ** 2, axis=1)) * np.maximum(
        0.0, 1.0 - np.sum(nodes ** 2, axis=1))
    mp1_bad = check_strong_mp(spec, u_star.with_values(dip),
                              interior_mask(u_star), qcfg, **tols)
    strong_ok = (mp1.verdict == HOLDS and mp1_bad.verdict == VIOLATED
                 and mp1_bad.diagnostics.get("eval_at_min", 0.0) < 0.0)
    _write_json(outdir / "mp_strong.json", _stamp(
        {"holds_instance": mp1, "violated_control": mp1_bad}, cfg))
    step("mp_strong", strong_ok, {"holds": mp1.verdict, "control": mp1_bad.verdict})

    m_wide = min(1.0 - 1e-6, float(np.max(u_star.values)) * 1.2 + 0.05)
    mp2 = check_antisym_mp(spec, u_star, axis_plane(spec.dimension, 0.0),
                           m_bound=m_wide, cfg=qcfg, **tols)
    mp2_diag = check_antisym_mp(spec, u_star, axis_plane(spec.dimension, -0.5),
                                m_bound=m_wide, cfg=qcfg, **tols)
    # subtracting the odd perturbation lowers the reflected side, forcing a
    # genuine negative minimum of w for planes near the origin
    asym = u_star.with_values(np.clip(
        u_star.values - _perturbation(u_star, sol["perturbation"]), 0.0, 0.55))
    mp2_bad = check_antisym_mp(spec, asym, axis_plane(spec.dimension, -0.1),
                               m_bound=m_wide, cfg=qcfg, **tols)
    antisym_ok = (mp2.verdict == HOLDS and mp2_bad.verdict == VIOLATED
                  and mp2_bad.diagnostics.get("gamma", 0.0) < 0.0
                  and mp2_diag.diagnostics["min_w"] >= -tols["concl_tol"])
    _write_json(outdir / "mp_antisym.json", _stamp(
        {"degenerate_holds": mp2, "manufactured_diagnostic": mp2_diag,
         "violated_control": mp2_bad}, cfg))
    step("mp_antisym", antisym_ok,
         {"degenerate": mp2.verdict, "diagnostic": mp2_diag.verdict,
          "control": mp2_bad.verdict})

    probe = _boundary_probe(spec, u_star, axis_plane(spec.dimension, -0.5), qcfg)
    _write_json(outdir / "mp_boundary.json", _stamp(probe, cfg))
    step("boundary_probe", probe.ok, {"margin": probe.margin})

    passed = all(s["passed"] for s in steps)
    summary = _stamp({"passed": passed, "steps": steps}, cfg)
    _write_json(outdir / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="fracvexp", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="INI or JSON config file")
        sp.add_argument("--output-dir", help="artifact directory (overrides config)")
        sp.add_argument("--seed", type=int, help="seed override")

    sp = sub.add_parser("validate-exponent", help="check the exponent hypotheses")
    common(sp)

    sp = sub.add_parser("eval", help="evaluate the operator at a point")
    common(sp)
    sp.add_argument("--input", required=True, help="sampled function CSV")
    sp.add_argument("--at", required=True, help="evaluation point, e.g. '0.3' or '0.3,-0.2'")

    sp = sub.add_parser("tail-check", help="tail-space membership evidence")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--at", required=True)
    sp.add_argument("--radii", default="2,4,8,16,32")

    sp = sub.add_parser("certify-lemmas", help="run the lemma suites")
    common(sp)

    sp = sub.add_parser("check-mp", help="maximum-principle checkers")
    common(sp)
    sp.add_argument("--theorem", required=True, choices=("3.1", "3.2", "3.5"))
    sp.add_argument("--input", required=True)
    sp.add_argument("--plane", default="1,0", help="direction components, then offset")
    sp.add_argument("--ball-radius", type=float, default=1.0)
    sp.add_argument("--auto-mask", action="store_true",
                    help="restrict the 3.1 domain to nodes where the operator is nonnegative")

    sp = sub.add_parser("solve", help="solve the ball problem")
    common(sp)
    sp.add_argument("--mode", default="manufactured",
                    choices=("power", "manufactured", "general-f"))
    sp.add_argument("--grid", type=int, help="nodes per axis")
    sp.add_argument("--q", default="2.0",
                    help="power-mode exponent: constant or expression in x, r (and y in 2-d)")
    sp.add_argument("--f-expr", help="general-f reaction f(t)")
    sp.add_argument("--fp-expr", help="optional f'(t) for the sign check")
    sp.add_argument("--out", help="solution CSV name")
    sp.add_argument("--report", help="report JSON name")

    sp = sub.add_parser("sweep-planes", help="moving-planes sweep")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--directions", default="8",
                    help="a count, or ';'-separated direction vectors")
    sp.add_argument("--mode", default="ball", choices=("ball", "whole-space"))
    sp.add_argument("--out", help="report JSON name")

    sp = sub.add_parser("reproduce-all", help="full pipeline with one summary")
    common(sp)
    return p


_HANDLERS = {
    "validate-exponent": _cmd_validate,
    "eval": _cmd_eval,
    "tail-check": _cmd_tail_check,
    "certify-lemmas": _cmd_certify_lemmas,
    "check-mp": _cmd_check_mp,
    "solve": _cmd_solve,
    "sweep-planes": _cmd_sweep,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    t0 = time.time()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit_Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)

    try:
        cfg = RunConfig.load(args.config)
        if args.seed is not None:
            cfg.override("run", "seed", args.seed)
        if args.output_dir is not None:
            cfg.override("run", "output_dir", args.output_dir)
        outdir = cfg.output_dir
        outdir.mkdir(parents=True, exist_ok=True)

        if args.command == "reproduce-all":
            summary = run_reproduce_all(cfg, outdir)
            ok = bool(summary["passed"])
        else:
            ok = _HANDLERS[args.command](args, cfg, outdir)
        _write_meta(outdir, argv, t0)
        return EXIT_OK if ok else EXIT_CHECK
    except SystemExit_Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (TailError, NumericError, EvaluationError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
