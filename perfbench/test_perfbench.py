"""Smoke tests of the benchmark itself, on shrunken workloads.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: config overrides that make each workload take a second or two
SMALL = {
    "reproduce-1d": {("solver", "nodes"): 61, ("lemmas", "n_mean_value"): 2000,
                     ("lemmas", "n_kernel"): 200, ("lemmas", "n_gprime"): 2000},
    "solve-2d": {("solver", "nodes"): 11},
    "diagnose-2d": {("solver", "nodes"): 13, ("sweep", "directions"): 2,
                    ("sweep", "count"): 21},
}


def _result(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, size=SMALL[workload]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_names_workloads_and_metrics():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.metric_units()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_end_to_end_metric_is_emitted_with_its_unit(capsys, workload):
    result = _result(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_writes_well_nested_spans_that_account_for_wall_time(capsys):
    result = _result(capsys, "reproduce-1d", trace=1)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == tracing.metric_units()
    record = json.loads((run.OUT / "reproduce-1d-seed7-trace1.json").read_text())
    traced = [p for p in record["passes"] if p["traced"]]
    assert traced and all(p["nested"] for p in traced)
    spans = traced[0]["spans"]
    roots = [s for s in spans if s[3] is None]
    assert [s[0] for s in roots] == [tracing.ROOT_SPAN]
    layers = traced[0]["layers"]
    self_sum = sum(v for k, v in layers.items()
                   if k.count(".") == 1 and k.endswith(".self_s") and not k.startswith("trace."))
    # the root span opens and closes just inside the timed section
    assert self_sum + layers["trace.unattributed_s"] == pytest.approx(
        layers["trace.wall_s"], abs=1e-3)
    assert layers["quadrature.build_plan.calls"] > 0
    assert layers["backend.apply_plan.nodes"] > 0
    assert layers["trace.absent_entry_points"] == 0


def test_tracer_records_an_absent_entry_point():
    tracer = tracing.Tracer()
    tracer.install([("quadrature", "no_such_function", "quadrature.gone", None, {})])
    assert tracer.absent == ["quadrature.no_such_function"]


def test_output_check_flags_a_perturbed_solution():
    workload = WORKLOADS["solve-2d"]
    fx, inputs, _ = run.setup(workload, 7, SMALL["solve-2d"])
    probe = tracing.Probe(fx.cli, ())
    out = workload.run(fx, inputs, probe)
    ops, _, _ = workload.check(fx, inputs, out, probe)
    assert [op.ok for op in ops] == [True]
    sol = out["report"].solution
    bumped = sol.values + 1e-2 * fx.ball_solver.interior_mask(sol)
    out["report"] = dataclasses.replace(out["report"], solution=sol.with_values(bumped))
    ops, _, _ = workload.check(fx, inputs, out, probe)
    assert [op.ok for op in ops] == [False]
    assert "sup_error=0.01" in ops[0].detail


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
