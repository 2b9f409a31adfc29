import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import fracvexp as fx
from fracvexp.ball_solver import bump_profile
from fracvexp.cli import _write_json, main, run_reproduce_all
from fracvexp.config import RunConfig
from fracvexp.exponents import CheckResult, ValidationReport
from fracvexp.lemma_suite import InfimumReport, SuiteReport
from fracvexp.max_principles import MPReport, ProbeReport
from fracvexp.moving_planes import SweepReport
from fracvexp.nonlocal_operator import TailReport


def make_bump_csv(tmp_path: Path, name="u.csv", n=101, power=2.0, dim=1) -> Path:
    u = fx.SampledFunction.from_function(
        lambda p: 0.4 * np.maximum(0.0, 1.0 - np.sum(p ** 2, axis=1)) ** power, 1.5, n, dim)
    path = tmp_path / name
    u.save(path)
    return path


def refuse_constant(token):
    """`json.loads` hook that rejects the non-JSON tokens NaN and +-Infinity."""
    raise ValueError(f"{token} is not JSON")


def small_config(tmp_path: Path, **overrides) -> Path:
    # the model order 0.5 (the boundary-probe mechanism is tied to it);
    # sweep tol sits at the smoke-solve recovery-error scale
    sections = {
        "run": {"seed": 7, "output_dir": tmp_path / "out"},
        "exponent": {"dimension": 1, "order": 0.5, "m": 0.5,
                     "q_kind": "example_ii"},
        "solver": {"nodes": 101, "tol_res": 0.001},
        "lemmas": {"n_mean_value": 2000, "n_kernel": 1000, "n_gprime": 2000},
        "sweep": {"count": 41, "directions": 2, "tol": 0.0005,
                  "radial_tol": 0.001},
    }
    for sec_key, val in overrides.items():
        sec, key = sec_key.split(".")
        sections.setdefault(sec, {})[key] = val
    lines = []
    for sec, vals in sections.items():
        lines.append(f"[{sec}]")
        lines += [f"{k} = {v}" for k, v in vals.items()]
    path = tmp_path / "config.ini"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestConfig:
    def test_defaults_load(self):
        cfg = RunConfig.load(None)
        assert cfg.seed == 12345
        assert cfg.exponent_spec().dimension == 1

    def test_ini_and_json_equivalent(self, tmp_path):
        ini = small_config(tmp_path)
        jso = tmp_path / "config.json"
        jso.write_text(json.dumps({
            "run": {"seed": 7, "output_dir": str(tmp_path / "out")},
            "exponent": {"dimension": 1, "order": 0.5, "m": 0.5,
                         "q_kind": "example_ii"},
            "solver": {"nodes": 101, "tol_res": 0.001},
            "lemmas": {"n_mean_value": 2000, "n_kernel": 1000, "n_gprime": 2000},
            "sweep": {"count": 41, "directions": 2, "tol": 0.0005,
                      "radial_tol": 0.001},
        }))
        a, b = RunConfig.load(ini), RunConfig.load(jso)
        assert a.config_hash() == b.config_hash()

    def test_hash_excludes_output_dir(self, tmp_path):
        a = RunConfig.load(small_config(tmp_path))
        b = RunConfig.load(small_config(tmp_path))
        b.override("run", "output_dir", "elsewhere")
        assert a.config_hash() == b.config_hash()
        b.override("run", "seed", 99)
        assert a.config_hash() != b.config_hash()

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[exponent]\nwibble = 3\n")
        with pytest.raises(fx.PreconditionError):
            RunConfig.load(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(fx.PreconditionError):
            RunConfig.load(tmp_path / "nope.ini")

    @pytest.mark.parametrize("name, text", [
        ("bad.ini", "[solver]\nnodes = abc\n"),
        ("bad.ini", "nodes = 101\n"),  # no section header
        ("bad.json", '{"solver": {"nodes": 101'),  # truncated
        ("bad.json", '{"solver": 5}'),
        # a number must be finite: NaN tolerances turned the 1-d n=101
        # 'inconclusive' strong MP into 'holds'
        ("nan.ini", "[mp]\nhyp_tol = nan\nconcl_tol = nan\n"),
        ("inf.ini", "[quadrature]\ntail_tolerance = inf\n"),
        ("nan.json", '{"quadrature": {"tail_radius": NaN}}'),
        ("inf.json", '{"sweep": {"tol": -Infinity}}'),
        ("inf.json", '{"solver": {"nodes": Infinity}}'),
    ])
    def test_malformed_file_is_precondition(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(fx.PreconditionError):
            RunConfig.load(p)
        assert main(["validate-exponent", "--config", str(p)]) == 3

    def test_integral_numbers_load_as_integers(self, tmp_path):
        p = tmp_path / "whole.ini"
        p.write_text("[solver]\nnodes = 15.0\n[exponent]\ndimension = 2.0\n")
        cfg = RunConfig.load(p)
        assert cfg.section("solver")["nodes"] == 15 and cfg.exponent_spec().dimension == 2
        assert isinstance(cfg.section("solver")["nodes"], int)
        with pytest.raises(fx.PreconditionError, match="not an integer"):
            cfg.override("solver", "nodes", 15.5)
        assert cfg.section("solver")["nodes"] == 15

    def test_every_key_takes_its_default_type(self, tmp_path):
        # an INI file gives strings; each key loads as the type of its default,
        # and the quadrature section is QuadratureConfig's own fields
        defaults = RunConfig.load(None).sections
        p = tmp_path / "all.ini"
        p.write_text("".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in vals.items())
                             for sec, vals in defaults.items()))
        cfg = RunConfig.load(p)
        assert cfg.sections == defaults
        assert all(type(cfg.sections[sec][k]) is type(v)
                   for sec, vals in defaults.items() for k, v in vals.items())
        assert cfg.quadrature() == fx.QuadratureConfig()
        assert sorted(defaults["quadrature"]) == sorted(
            f.name for f in dataclasses.fields(fx.QuadratureConfig))

    def test_unknown_section_or_entry_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[plotting]\ndpi = 300\n")
        with pytest.raises(fx.PreconditionError, match="unknown config section"):
            RunConfig.load(p)
        with pytest.raises(fx.PreconditionError, match="unknown config entry"):
            RunConfig.load(None).override("solver", "wibble", 3)

    @pytest.mark.parametrize("key, value, message", [
        ("pairing_radius", 2.0, "pairing_radius"), ("graded_levels", 0, "graded_levels"),
        ("angular_nodes", 6.0, None), ("angular_nodes", 5, "angular_nodes")])
    def test_quadrature_settings_are_checked(self, tmp_path, capsys, key, value, message):
        p = small_config(tmp_path, **{f"quadrature.{key}": value})
        code = main(["eval", "--config", str(p), "--input", str(make_bump_csv(tmp_path)),
                     "--at", "0.0"])
        assert code == (0 if message is None else 3)
        assert message is None or message in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("mp", "hyp_tol", float("nan")), ("mp", "concl_tol", "inf"),
        ("quadrature", "tail_radius", "nan"), ("run", "seed", float("-inf"))])
    def test_non_finite_override_is_precondition(self, section, key, value):
        cfg = RunConfig.load(None)
        before = cfg.section(section)[key]
        with pytest.raises(fx.PreconditionError, match="bad value"):
            cfg.override(section, key, value)
        assert cfg.section(section)[key] == before


class TestExitCodes:
    def test_usage_error_is_64(self):
        assert main(["no-such-command"]) == 64
        assert main([]) == 64

    def test_validate_pass_and_fail(self, tmp_path):
        # s p+ = 0.3 * 2.94 < 1 = N passes in full; the model order 0.5 fails
        # the dimension bound (reported honestly), hence exit 2
        cfg = small_config(tmp_path, **{"exponent.order": "0.3"})
        assert main(["validate-exponent", "--config", str(cfg)]) == 0
        bad = small_config(tmp_path)
        assert main(["validate-exponent", "--config", str(bad)]) == 2

    def test_missing_input_is_io_error(self, tmp_path):
        cfg = small_config(tmp_path)
        code = main(["eval", "--config", str(cfg), "--input",
                     str(tmp_path / "ghost.csv"), "--at", "0.0"])
        assert code == 5

    @pytest.mark.parametrize("damage, code", [
        ("truncated header", 3), ("header without shape", 3),
        ("non-numeric cell", 3), ("missing header", 5)])
    def test_malformed_input_is_precondition(self, tmp_path, damage, code):
        cfg = small_config(tmp_path)
        u = make_bump_csv(tmp_path)
        header = u.with_suffix(".json")
        if damage == "truncated header":
            header.write_text(header.read_text()[:-5])
        elif damage == "header without shape":
            meta = json.loads(header.read_text())
            del meta["shape"]
            header.write_text(json.dumps(meta))
        elif damage == "non-numeric cell":
            lines = u.read_text().splitlines()
            lines[3] = lines[3].split(",")[0] + ",abc"
            u.write_text("\n".join(lines) + "\n")
        else:
            header.unlink()
        assert main(["eval", "--config", str(cfg), "--input", str(u), "--at", "0.0"]) == code

    @pytest.mark.parametrize("header", [
        {"smoothness_hint": 3.9}, {"smoothness_hint": 2.5}, {"dim": 2}])
    def test_inexact_header_is_precondition(self, tmp_path, header):
        # a fractional hint used to load truncated, and a dim unlike the shape's used to load
        cfg = small_config(tmp_path)
        u = make_bump_csv(tmp_path)
        meta = json.loads(u.with_suffix(".json").read_text())
        u.with_suffix(".json").write_text(json.dumps({**meta, **header}))
        assert main(["eval", "--config", str(cfg), "--input", str(u), "--at", "0.3"]) == 3

    @pytest.mark.parametrize("damage, message", [
        ("unknown exterior rule", "unknown exterior rule"),
        ("even n", "odd node count"),
        ("n = 3", "at least 5 nodes"),
        ("size unlike the shape", "values size does not match"),
        ("NaN value", "must be finite"),
        ("nonzero value outside the ball", "zero values at nodes with |x| >= 1"),
        ("extent 0.9", "contain the unit ball")])
    def test_grid_refusals_through_the_input(self, tmp_path, capsys, damage, message):
        # each refusal of a grid the interpolant cannot serve, from a saved u.csv/u.json
        cfg = small_config(tmp_path)
        u = make_bump_csv(tmp_path)
        meta = json.loads(u.with_suffix(".json").read_text())
        values = np.loadtxt(u, delimiter=",", skiprows=1)[:, -1]
        if damage == "unknown exterior rule":
            meta["exterior_rule"] = "zero_somewhere"
        elif damage == "even n":
            meta["shape"], values = [100], values[:100]
        elif damage == "n = 3":
            meta["shape"], values = [3], values[:3]
        elif damage == "size unlike the shape":
            values = values[:99]
        elif damage == "NaN value":
            values[50] = np.nan
        elif damage == "nonzero value outside the ball":
            values[-1] = 0.1  # at x = 1.5
        else:
            meta["extent"] = 0.9
        u.with_suffix(".json").write_text(json.dumps(meta))
        np.savetxt(u, np.column_stack([np.zeros(values.size), values]), delimiter=",",
                   header="x,value", comments="")
        assert main(["eval", "--config", str(cfg), "--input", str(u), "--at", "0.0"]) == 3
        assert message in capsys.readouterr().err

    def test_callable_rule_is_not_saved(self, tmp_path):
        u = fx.SampledFunction(np.zeros(11), (11,), 1.5, exterior_rule=lambda p: 0.0 * p[:, 0])
        with pytest.raises(fx.PreconditionError, match="callable"):
            u.save(tmp_path / "u.csv")
        assert not (tmp_path / "u.csv").exists()

    def test_plane_without_an_offset_is_precondition(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        u = make_bump_csv(tmp_path)
        assert main(["check-mp", "--config", str(cfg), "--theorem", "3.2", "--input", str(u),
                     "--plane", "1"]) == 3
        assert "plus the offset" in capsys.readouterr().err

    def test_help_and_version_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert "reproduce-all" in capsys.readouterr().out
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == fx.__version__

    def test_seed_override(self, tmp_path):
        cfg = small_config(tmp_path)
        u = make_bump_csv(tmp_path)
        assert main(["eval", "--config", str(cfg), "--input", str(u), "--at", "0.0",
                     "--seed", "99"]) == 0
        assert json.loads((tmp_path / "out" / "eval.json").read_text())["seed"] == 99

    @pytest.mark.parametrize("header, n, command", [
        ({"shape": [5, 7]}, 35, ["eval", "--at", "0.3,0.7"]),
        ({"shape": [5, 5, 5]}, 125, ["sweep-planes"]),
        ({"extent": float("nan")}, 101, ["check-mp", "--theorem", "3.1", "--auto-mask"]),
        ({"extent": 0.0}, 101, ["check-mp", "--theorem", "3.2", "--plane", "1,-0.3"]),
        ({"extent": float("inf")}, 101, ["sweep-planes"])])
    def test_grid_header_the_interpolation_cannot_serve(self, tmp_path, header, n, command):
        # a u.json header with unequal axes, three axes or a degenerate extent
        cfg = small_config(tmp_path, **{"exponent.dimension": len(header.get("shape", [n]))})
        u = make_bump_csv(tmp_path, n=n)
        meta = json.loads(u.with_suffix(".json").read_text())
        # dim matches the shape, so that the shape itself is refused
        u.with_suffix(".json").write_text(json.dumps(
            {**meta, "exterior_rule": "zero_outside_box",
             "dim": len(header.get("shape", meta["shape"])), **header}))
        assert main([command[0], "--config", str(cfg), "--input", str(u), *command[1:]]) == 3

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_bad_solve_grid_is_precondition(self, tmp_path, grid):
        # --grid 0 must not fall back to the config's grid
        cfg = small_config(tmp_path)
        assert main(["solve", "--config", str(cfg), "--mode", "manufactured",
                     "--grid", grid]) == 3

    def test_bad_point_is_precondition(self, tmp_path):
        cfg = small_config(tmp_path)
        u = make_bump_csv(tmp_path)
        code = main(["eval", "--config", str(cfg), "--input", str(u), "--at", "5.0"])
        assert code == 3
        code = main(["eval", "--config", str(cfg), "--input", str(u), "--at", ","])
        assert code == 3

    @pytest.mark.parametrize("extra", [
        ["--mode", "power", "--q", "2+"],
        ["--mode", "power", "--q", "__import__('os')"],
        ["--mode", "power", "--q", "x.__class__"],
        ["--mode", "general-f", "--f-expr", "foo(t)"],
        ["--mode", "general-f"],
    ])
    def test_bad_expression_is_usage_error(self, tmp_path, extra):
        # malformed expressions and names outside the whitelist stop before any work
        cfg = small_config(tmp_path)
        assert main(["solve", "--config", str(cfg), *extra]) == 64

    @pytest.mark.parametrize("q", ["1/0", "log"])
    def test_expression_failing_on_data_is_precondition(self, tmp_path, q):
        cfg = small_config(tmp_path)
        assert main(["solve", "--config", str(cfg), "--mode", "power", "--q", q]) == 3

    @pytest.mark.parametrize("spec_dim, u_dim, extra", [
        (2, 2, ["check-mp", "--theorem", "3.2"]),                     # 1-d default plane
        (2, 2, ["check-mp", "--theorem", "3.5", "--plane", "1,0,0,-0.5"]),
        (1, 1, ["check-mp", "--theorem", "3.2", "--plane", "1,0,-0.2"]),
        (1, 1, ["check-mp", "--theorem", "3.2", "--plane", "1,nan"]),  # empty Omega read 'holds'
        (1, 1, ["tail-check", "--at", "0.1,0.2"]),
        (1, 2, ["tail-check", "--at", "0,0"]),
    ])
    def test_plane_point_or_grid_of_another_dimension_is_precondition(
            self, tmp_path, spec_dim, u_dim, extra):
        # these used to end in a traceback or in a verdict on broadcast points
        cfg = small_config(tmp_path, **{"exponent.dimension": spec_dim})
        u = make_bump_csv(tmp_path, n=101 if u_dim == 1 else 15, dim=u_dim)
        assert main([extra[0], "--config", str(cfg), "--input", str(u), *extra[1:]]) == 3

    @pytest.mark.parametrize("radius", ["nan", "-1", "0"])
    def test_bad_ball_radius_is_precondition(self, tmp_path, radius):
        # an empty Omega used to read 'holds' with min_w_omega inf
        cfg = small_config(tmp_path)
        u = make_bump_csv(tmp_path)
        assert main(["check-mp", "--config", str(cfg), "--theorem", "3.2", "--input", str(u),
                     "--plane", "1,-0.3", "--ball-radius", radius]) == 3

    @pytest.mark.parametrize("theorem, plane", [("3.1", "1,0"), ("3.5", "1,-0.5")])
    @pytest.mark.parametrize("radius", ["nan", "-1", "0"])
    def test_ball_radius_is_checked_for_every_theorem(self, tmp_path, capsys, theorem, plane,
                                                      radius):
        # 3.1 and 3.5 do not read it, and used to exit 0 on any value
        cfg = small_config(tmp_path)
        u = make_bump_csv(tmp_path)
        assert main(["check-mp", "--config", str(cfg), "--theorem", theorem, "--input", str(u),
                     "--plane", plane, "--ball-radius", radius]) == 3
        assert "--ball-radius must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("theorem", ["3.2", "3.5"])
    @pytest.mark.parametrize("plane", ["0,0.5", "0,0,0.5", "inf,0.5"])
    def test_zero_plane_direction_is_precondition(self, tmp_path, capsys, theorem, plane):
        # a zero direction used to leak a divide warning and report |e| = nan
        dim = plane.count(",")
        cfg = small_config(tmp_path, **{"exponent.dimension": dim})
        u = make_bump_csv(tmp_path, n=101 if dim == 1 else 15, dim=dim)
        assert main(["check-mp", "--config", str(cfg), "--theorem", theorem, "--input", str(u),
                     "--plane", plane]) == 3
        err = capsys.readouterr().err
        assert "the direction must be finite and nonzero" in err and "Warning" not in err

    @pytest.mark.parametrize("command, mode", [("solve", "manufactured"), ("solve", "power"),
                                               ("reproduce-all", None)])
    @pytest.mark.parametrize("key, value", [("eta", 2), ("eta", -0.5), ("eta", 1),
                                            ("tol_res", 0), ("tol_res", -1),
                                            ("max_iters", 0), ("max_iters", -5)])
    def test_bad_solver_settings_are_precondition(self, tmp_path, capsys, command, mode, key,
                                                  value):
        # eta = 2 used to fail on the clipped guess with a zero_outside_ball message,
        # eta = -0.5 solved on [0, 1.5] and exited 0; tol_res <= 0 and max_iters < 1
        # ran until the line search stalled or the budget ran out, and exited 2
        cfg = small_config(tmp_path, **{f"solver.{key}": value, "solver.nodes": 21})
        extra = ["--mode", mode] if mode else []
        assert main([command, "--config", str(cfg), *extra]) == 3
        err = capsys.readouterr().err
        assert err.startswith("precondition error:") and key in err

    @pytest.mark.parametrize("directions", ["0", "-3", "0;1", "nan;1", "1;2,3", "abc", "1,x"])
    def test_bad_sweep_directions_are_precondition(self, tmp_path, directions):
        # no direction at all, or one that is not a nonzero vector of the grid's
        # dimension, would sweep nothing (or NaN) and read as symmetric
        cfg = small_config(tmp_path)
        u = make_bump_csv(tmp_path)
        assert main(["sweep-planes", "--config", str(cfg), "--input", str(u),
                     "--directions", directions]) == 3

    @pytest.mark.parametrize("at, radii", [
        ("0.2", "a,b"), ("0.2", "2,inf"), ("0.2", "2,nan"), ("0.2", "0,2"),
        ("inf", "2,4,8,16,32"), ("nan", "2,4,8,16,32")])
    def test_bad_radii_are_precondition(self, tmp_path, capsys, at, radii):
        # a point at infinity read as "decaying" with i1 = 0
        cfg = small_config(tmp_path)
        u = make_bump_csv(tmp_path)
        assert main(["tail-check", "--config", str(cfg), "--input", str(u),
                     "--at", at, "--radii", radii]) == 3
        assert capsys.readouterr().err.startswith("precondition error:")

    @pytest.mark.parametrize("command, overrides", [
        ("validate-exponent", {"exponent.dimension": 3}),
        ("certify-lemmas", {"exponent.dimension": 3}),
        ("validate-exponent", {"exponent.q_kind": "constant", "exponent.q_params": "abc"}),
        ("validate-exponent", {"exponent.q_kind": "table", "exponent.q_params": "a:b"}),
        ("validate-exponent", {"exponent.q_kind": "table", "exponent.q_params": "1-2"}),
        ("validate-exponent", {"exponent.q_kind": "table", "exponent.q_params": "0:2.5,5"}),
        ("validate-exponent", {"exponent.m": 0}),
        ("validate-exponent", {"exponent.m": -0.5}),
        ("validate-exponent", {"exponent.m": 1}),
        ("validate-exponent", {"exponent.dimension": 2.7}),
        ("validate-exponent", {"solver.nodes": 15.9}),
    ], ids=["dimension-3", "dimension-3-lemmas", "constant-abc", "table-a:b", "table-1-2",
            "table-0:2.5,5", "m-0", "m--0.5", "m-1", "dimension-2.7", "nodes-15.9"])
    def test_unrunnable_exponent_is_precondition(self, tmp_path, capsys, command, overrides):
        # the grids, stencils and sweeps exist in 1-d and 2-d only; q_params
        # that do not parse and m outside (0, 1) (log m in the profile) used
        # to end in a raw traceback; an integer key silently truncated 2.7 to 2
        cfg = small_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith("precondition error:")

    @pytest.mark.parametrize("command", ["certify-lemmas", "reproduce-all"])
    @pytest.mark.parametrize("key", ["n_mean_value", "n_kernel", "n_gprime"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_empty_lemma_suite_is_precondition(self, tmp_path, capsys, command, key, value):
        # no sample crashed the suite's reduction over its margins
        cfg = small_config(tmp_path, **{f"lemmas.{key}": value})
        assert main([command, "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith("precondition error:")

    def test_reproduce_all_without_sweep_directions_is_precondition(self, tmp_path):
        cfg = small_config(tmp_path, **{"sweep.directions": 0})
        assert main(["reproduce-all", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("command", ["reproduce-all", "sweep-planes"])
    @pytest.mark.parametrize("key, value", [("count", 0), ("count", 1), ("refine", -3)])
    def test_bad_sweep_grid_is_precondition(self, tmp_path, command, key, value):
        # no plane ends in an IndexError and a negative refine in a ValueError;
        # one plane has no grid step, so tol_lambda would read any lambda0 symmetric
        cfg = small_config(tmp_path, **{f"sweep.{key}": value})
        extra = ["--input", str(make_bump_csv(tmp_path))] if command == "sweep-planes" else []
        assert main([command, "--config", str(cfg), *extra]) == 3


class TestEval:
    def test_constant_function_zero(self, tmp_path):
        # a globally constant function (serializable constant exterior rule)
        # evaluated at a grid node: every quadrature term is f(0) = 0
        nodes = 101
        u = fx.SampledFunction(np.full(nodes, 0.3), (nodes,), 1.5,
                               exterior_rule="constant:0.3")
        upath = tmp_path / "const.csv"
        u.save(upath)
        cfg = small_config(tmp_path)
        node = float(u.axis_nodes()[50])
        assert main(["eval", "--config", str(cfg), "--input", str(upath),
                     "--at", str(node)]) == 0
        rep = json.loads((tmp_path / "out" / "eval.json").read_text())
        assert rep["value"] == 0.0

    def test_bump_eval_report(self, tmp_path):
        cfg = small_config(tmp_path)
        u = make_bump_csv(tmp_path)
        assert main(["eval", "--config", str(cfg), "--input", str(u),
                     "--at", "0.0"]) == 0
        rep = json.loads((tmp_path / "out" / "eval.json").read_text())
        assert rep["value"] > 0.0  # operator is positive at the bump peak
        assert "config_hash" in rep and rep["seed"] == 7

    def test_finite_where_p_is_below_two(self, tmp_path):
        # m = 0.3 gives p in [1.83, 2.33]; at x = 1.2, outside the bump's
        # support, rows with u(x) - u(y) = 0 at p < 2 add f(0) = 0, not NaN
        cfg = small_config(tmp_path, **{"exponent.m": 0.3})
        u = make_bump_csv(tmp_path)
        assert main(["eval", "--config", str(cfg), "--input", str(u), "--at", "1.2"]) == 0
        rep = json.loads((tmp_path / "out" / "eval.json").read_text())
        assert math.isfinite(rep["value"]) and rep["value"] < 0.0

    def test_uncertified_tail_is_numeric_error(self, tmp_path):
        # an exterior value of 3 needs tail_radius >= 2.3e7 (TestTailCertificate)
        u = fx.SampledFunction.from_function(bump_profile(0.5, 0.5), 1.5, 101, 1,
                                             exterior_rule="constant:3.0")
        u.save(tmp_path / "u.csv")
        assert main(["eval", "--input", str(tmp_path / "u.csv"), "--at", "0.3",
                     "--output-dir", str(tmp_path / "out")]) == 4


class TestTailCheck:
    def test_report_written(self, tmp_path):
        cfg = small_config(tmp_path)
        u = make_bump_csv(tmp_path)
        assert main(["tail-check", "--config", str(cfg), "--input", str(u),
                     "--at", "0.2", "--radii", "2,4,8"]) == 0
        rep = json.loads((tmp_path / "out" / "tail.json").read_text())
        assert rep["verdict"] == "decaying"
        assert rep["increments"][-1] == 0.0


class TestCertifyLemmas:
    def test_runs_and_passes(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["certify-lemmas", "--config", str(cfg)]) == 0
        rep = json.loads((tmp_path / "out" / "lemmas.json").read_text())
        assert rep["passed"] and len(rep["suites"]) == 3
        assert all("min_margin" in s and "seed" in s for s in rep["suites"])


class TestCheckMP:
    def test_theorem_31_auto_mask(self, tmp_path):
        cfg = small_config(tmp_path)
        u = make_bump_csv(tmp_path)
        code = main(["check-mp", "--config", str(cfg), "--theorem", "3.1",
                     "--input", str(u), "--auto-mask"])
        assert code == 0
        rep = json.loads((tmp_path / "out" / "mp_3_1.json").read_text())
        assert rep["verdict"] == "holds"

    def test_theorem_31_on_the_interior_mask(self, tmp_path):
        # without --auto-mask, Omega is every interior ball node, and the
        # operator hypothesis fails near the support edge: exit 2, inconclusive
        cfg = small_config(tmp_path)
        u = make_bump_csv(tmp_path)
        code = main(["check-mp", "--config", str(cfg), "--theorem", "3.1", "--input", str(u)])
        assert code == 2
        rep = json.loads((tmp_path / "out" / "mp_3_1.json").read_text())
        assert rep["verdict"] == "inconclusive"
        assert rep["diagnostics"]["reason"] == "operator hypothesis fails on the domain"

    def test_theorem_32_degenerate(self, tmp_path):
        cfg = small_config(tmp_path)
        u = make_bump_csv(tmp_path)
        code = main(["check-mp", "--config", str(cfg), "--theorem", "3.2",
                     "--input", str(u), "--plane", "1,0"])
        assert code == 0

    @pytest.mark.parametrize("amplitude, codes", [(0.45, (0, 2)), (0.5, (3,))])
    def test_theorem_32_on_a_solved_u(self, tmp_path, amplitude, codes):
        # README's sequence: solve writes out/u.csv, check-mp reads it.  The
        # solution peaks at the amplitude, so only an amplitude below m = 0.5
        # gives an input Theorem 3.2 accepts; its verdict may read inconclusive
        cfg = small_config(tmp_path, **{"solver.amplitude": amplitude})
        assert main(["solve", "--config", str(cfg), "--mode", "manufactured",
                     "--out", "u.csv"]) == 0
        assert main(["check-mp", "--config", str(cfg), "--theorem", "3.2",
                     "--input", str(tmp_path / "out" / "u.csv"), "--plane", "1,-0.5"]) in codes

    def test_theorem_35_probe(self, tmp_path):
        # the Hopf-type sign shows on the natural boundary profile (1-x^2)^s
        cfg = small_config(tmp_path)
        u = make_bump_csv(tmp_path, n=201, power=0.5)
        code = main(["check-mp", "--config", str(cfg), "--theorem", "3.5",
                     "--input", str(u), "--plane", "1,-0.5"])
        assert code == 0
        rep = json.loads((tmp_path / "out" / "mp_3_5.json").read_text())
        assert rep["ok"] and all(r < 0 for r in rep["ratios"])


class TestSolveCommand:
    def test_manufactured_round_trip(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["solve", "--config", str(cfg), "--mode", "manufactured"]) == 0
        out = tmp_path / "out"
        rep = json.loads((out / "solve.json").read_text())
        assert rep["converged"] and rep["sup_error_vs_target"] <= 5e-3
        plan = rep["plan"]
        assert sorted(plan) == ["entries", "nodes", "nodes_uncollapsed", "points", "r_eff",
                                "tail_bound"]
        assert plan["points"] == 67  # interior nodes of the 101-node grid
        assert 0 < plan["nodes"] < plan["nodes_uncollapsed"]
        assert plan["nodes"] <= plan["entries"] <= 3 * plan["nodes"]  # 3-node stencils in 1-d
        u = fx.SampledFunction.load(out / "u.csv")
        assert u.values.size == 101
        hist = (out / "residual_history.csv").read_text().splitlines()
        assert hist[0] == "iter,sup_residual"
        prof = (out / "profile.csv").read_text().splitlines()
        assert prof[0] == "r,u"

    def test_power_mode_trivial_from_zero(self, tmp_path):
        cfg = small_config(tmp_path)
        code = main(["solve", "--config", str(cfg), "--mode", "power",
                     "--q", "2.0", "--grid", "81"])
        rep = json.loads((tmp_path / "out" / "solve.json").read_text())
        assert code in (0, 2)  # converged or honestly reported
        assert rep["mode"] == "power"


    def test_general_f_with_a_derivative(self, tmp_path):
        cfg = small_config(tmp_path, **{"solver.max_iters": 3})
        code = main(["solve", "--config", str(cfg), "--mode", "general-f",
                     "--f-expr", "0.3 - 0.1*t", "--fp-expr", "-0.1 + 0*t"])
        rep = json.loads((tmp_path / "out" / "solve.json").read_text())
        assert code == 2 and rep["mode"] == "general-f"
        assert rep["applies"] == 3 and rep["message"] == "apply budget exhausted before tolerance"

    def test_power_mode_exponent_in_y(self, tmp_path):
        cfg = small_config(tmp_path, **{"exponent.dimension": 2, "solver.max_iters": 3})
        code = main(["solve", "--config", str(cfg), "--mode", "power",
                     "--q", "2 + 0.1*y*y", "--grid", "11"])
        rep = json.loads((tmp_path / "out" / "solve.json").read_text())
        assert code == 2 and rep["grid"]["shape"] == [11, 11] and rep["applies"] == 3


class TestSweepCommand:
    def test_radial_bump_symmetric(self, tmp_path):
        cfg = small_config(tmp_path)
        u = make_bump_csv(tmp_path, n=201)
        assert main(["sweep-planes", "--config", str(cfg), "--input", str(u),
                     "--directions", "2"]) == 0
        out = tmp_path / "out"
        rep = json.loads((out / "sweep.json").read_text())
        assert rep["all_symmetric"] and len(rep["sweeps"]) == 2
        csv = (out / "sweep_0.csv").read_text().splitlines()
        assert csv[0] == "lambda,min_w"
        assert len(csv) > 41

    def test_explicit_direction_list(self, tmp_path):
        cfg = small_config(tmp_path)
        u = make_bump_csv(tmp_path, n=201)
        assert main(["sweep-planes", "--config", str(cfg), "--input", str(u),
                     "--directions", "1;-1"]) == 0


class TestReproduceAll:
    def test_two_runs_byte_identical(self, tmp_path):
        cfg_text = small_config(tmp_path).read_text()
        reports = []
        for label in ("A", "B"):
            cdir = tmp_path / label
            cdir.mkdir()
            cfg = cdir / "config.ini"
            cfg.write_text(cfg_text.replace(str(tmp_path / "out"), str(cdir / "out")))
            assert main(["reproduce-all", "--config", str(cfg)]) == 0
            reports.append(cdir / "out")
        names = sorted(p.name for p in reports[0].iterdir()
                       if p.suffix in (".json", ".csv") and p.name != "run_meta.json")
        assert "summary.json" in names
        for name in names:
            a = (reports[0] / name).read_bytes()
            b = (reports[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_order_0_8_passes(self, tmp_path):
        # s = 0.8 at n = 201: the manufactured solve converges once the
        # discrete equation stays fixed through the solve
        cfg = small_config(tmp_path, **{"exponent.order": 0.8, "solver.nodes": 201})
        assert main(["reproduce-all", "--config", str(cfg)]) == 0

    @staticmethod
    def record_builds(monkeypatch) -> list:
        """Patch every fracvexp binding of build_plan to log (spec, the names of its
        caller and the caller's caller, plan) per call."""
        import fracvexp.quadrature as quadrature
        builds, build = [], quadrature.build_plan

        def recording(spec, *args, **kwargs):
            callers = (sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name)
            plan = build(spec, *args, **kwargs)
            builds.append((spec, callers, plan))
            return plan
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("fracvexp") and \
                    getattr(mod, "build_plan", None) is build:
                monkeypatch.setattr(mod, "build_plan", recording)
        return builds

    def test_one_exponent_spec_per_run(self, tmp_path, monkeypatch):
        # steps 3 and 5 can share plan rows only if every build gets equal specs
        builds = self.record_builds(monkeypatch)
        assert main(["reproduce-all", "--config", str(small_config(tmp_path))]) == 0
        specs = [spec for spec, _, _ in builds]
        assert len(specs) > 2 and all(s == specs[0] for s in specs)

    def test_plan_builds_per_run(self, tmp_path, monkeypatch):
        # manufacture, solve, auto-mask, strong MP and its dip control (one
        # pass each) and two builds per operator difference: three
        # antisymmetric checks, one probe
        builds = self.record_builds(monkeypatch)
        cfg = RunConfig.load(small_config(tmp_path))
        assert cfg.section("solver")["nodes"] == 101
        assert run_reproduce_all(cfg, tmp_path / "out")["passed"]
        assert len(builds) <= 13
        # one r_eff per grid: manufacture, solve, the auto-mask and both
        # strong-MP checks read the interior-ball nodes of one grid, so they
        # get one row set (all but solve build through eval_plap_field)
        shared = [plan.R for _, (caller, outer), plan in builds if caller == "solve"
                  or outer in ("manufacture", "_auto_mask", "check_strong_mp")]
        assert len(shared) == 5 and all(R is shared[0] for R in shared)
        # the plans stay alive in `builds`, so no two row sets share an id
        assert len({id(plan.R) for _, _, plan in builds}) <= 9

    def test_summary_structure(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["reproduce-all", "--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        names = [s["name"] for s in summary["steps"]]
        assert names == ["validate_exponent", "certify_lemmas",
                         "manufactured_solve", "sweep_recovered",
                         "sweep_translated_control", "mp_strong",
                         "mp_antisym", "boundary_probe"]
        assert summary["passed"]
        assert summary["config_hash"] == RunConfig.load(small_config(tmp_path)).config_hash()


class TestReports:
    STAMP = {"config_hash", "seed", "version"}

    @staticmethod
    def fields(report_type) -> set:
        return {f.name for f in dataclasses.fields(report_type)}

    def test_json_keys_are_field_names(self, tmp_path):
        # a report's JSON object is its dataclass's fields (SolveReport's, whose
        # solution grid becomes `grid`, are checked in test_ball_solver)
        cfg = small_config(tmp_path)
        assert main(["reproduce-all", "--config", str(cfg)]) == 0
        out = tmp_path / "out"

        def load(name):
            return json.loads((out / name).read_text())

        rep = load("validate.json")
        assert set(rep) == self.fields(ValidationReport) | self.STAMP
        assert all(set(c) == self.fields(CheckResult) for c in rep["checks"])
        rep = load("lemmas.json")
        assert set(rep) == {"passed", "seed", "suites", "cx_infimum"} | self.STAMP
        assert all(set(s) == self.fields(SuiteReport) for s in rep["suites"])
        assert set(rep["cx_infimum"]) == self.fields(InfimumReport)
        rep = load("sweep.json")
        assert all(set(s) == self.fields(SweepReport) for s in rep["sweeps"])
        for name, count in (("mp_strong.json", 2), ("mp_antisym.json", 3)):
            rep = load(name)
            checks = [v for k, v in rep.items() if k not in self.STAMP]
            assert len(checks) == count
            assert all(set(c) == self.fields(MPReport) for c in checks)
        assert set(load("mp_boundary.json")) == self.fields(ProbeReport) | self.STAMP

        u = make_bump_csv(tmp_path)
        assert main(["tail-check", "--config", str(cfg), "--input", str(u), "--at", "0.2"]) == 0
        assert set(load("tail.json")) == self.fields(TailReport) | self.STAMP
        for theorem, extra, report_type in (("3.1", ["--auto-mask"], MPReport),
                                            ("3.2", ["--plane", "1,-0.3"], MPReport),
                                            ("3.5", ["--plane", "1,-0.5"], ProbeReport)):
            assert main(["check-mp", "--config", str(cfg), "--theorem", theorem,
                         "--input", str(u), *extra]) in (0, 2)
            rep = load(f"mp_{theorem.replace('.', '_')}.json")
            assert set(rep) == self.fields(report_type) | self.STAMP

    def test_numpy_scalars_written_as_python_values(self, tmp_path):
        python = {"b": [True, False], "i": [3, -7], "f": [0.5, 0.1]}
        numpy = {"b": [np.bool_(True), np.bool_(False)], "i": [np.int64(3), np.int32(-7)],
                 "f": [np.float32(0.5), np.float64(0.1)]}
        _write_json(tmp_path / "python.json", python)
        _write_json(tmp_path / "numpy.json", numpy)
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "python.json").read_bytes()

    def test_non_finite_numbers_written_as_null(self, tmp_path):
        _write_json(tmp_path / "r.json", {"x": math.inf, "y": [math.nan], "z": -np.inf})
        assert json.loads((tmp_path / "r.json").read_text(), parse_constant=refuse_constant) \
            == {"x": None, "y": [None], "z": None}

    def test_every_report_is_strict_json(self, tmp_path):
        # RFC 8259 has no NaN or Infinity: a sweep plane with no half-space
        # node has min_w = inf, and a 3.5 probe refused on its limiting plane
        # has a NaN margin
        cfg = small_config(tmp_path)
        assert main(["reproduce-all", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert main(["check-mp", "--config", str(cfg), "--theorem", "3.5",
                     "--input", str(out / "u.csv"), "--plane", "1,0"]) == 2
        assert json.loads((out / "mp_3_5.json").read_text())["margin"] is None
        for path in sorted(out.glob("*.json")):
            json.loads(path.read_text(), parse_constant=refuse_constant)

    def test_other_objects_are_refused(self, tmp_path):
        # a value grid must never land in a report
        u = fx.SampledFunction.load(make_bump_csv(tmp_path))
        for value in (u.values, object(), {1.0, 2.0}):
            with pytest.raises(TypeError):
                _write_json(tmp_path / "bad.json", {"values": value})
        assert not (tmp_path / "bad.json").exists()
