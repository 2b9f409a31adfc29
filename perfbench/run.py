"""Run one fracvexp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload reproduce-1d --seed 1 --seconds 58 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A run sets the workload up several times (fresh import of
``fracvexp`` plus input generation; the median is ``setup_s``) around
whole passes of the timed section, until another pass would overrun
``--seconds``.  Every pass starts from a fresh import and fresh inputs, so
no pass can reuse work a previous one did.  End-to-end metrics are medians
over the untraced passes.  With ``--trace 1`` passes alternate untraced
and traced (at least one of each), and the per-layer metrics are medians
over the traced passes; the difference of the two medians is
``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run (passes, checks, digests, spans) goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import pkgutil
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import SimpleNamespace

from tracing import Probe, Tracer, metric_units
from workloads import WORKLOADS, Op, digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: extra set-ups timed before each pass and after the last, on top of the
#: one each pass does, so that setup_s samples the whole run
SETUP_REPS = 5

END_TO_END = {"wall_s": "s", "cpu_s": "s", "solve_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}


def fresh_import() -> SimpleNamespace:
    """Drop every fracvexp module and import the package and all its modules
    again, so module-level state (caches included) starts empty."""
    for name in [m for m in sys.modules if m == "fracvexp" or m.startswith("fracvexp.")]:
        del sys.modules[name]
    pkg = importlib.import_module("fracvexp")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"fracvexp imported from {pkg.__file__}, not from {SRC}")
    modules = {info.name: importlib.import_module(f"fracvexp.{info.name}")
               for info in pkgutil.iter_modules(pkg.__path__)}
    return SimpleNamespace(**modules)


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


@dataclass
class Pass:
    traced: bool
    setup_s: float
    wall_s: float = 0.0
    cpu_s: float = 0.0
    solve_s: float = 0.0
    ops: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    nested: bool = True


def setup(workload, seed: int, size: dict):
    t0 = time.perf_counter()
    fx = fresh_import()
    inputs = workload.prepare(fx, seed, size, OUT)
    return fx, inputs, time.perf_counter() - t0


def run_pass(workload, seed: int, size: dict, traced: bool, pass_id: int) -> Pass:
    fx, inputs, setup_s = setup(workload, seed, size)
    p = Pass(traced, setup_s)
    tracer = Tracer(pass_id) if traced else None
    if tracer:
        tracer.install()
    probe = Probe(fx.cli, workload.probes)
    gc.collect()
    c0, w0 = _cpu(), time.perf_counter()
    try:
        if tracer:
            with tracer.span("workload"):
                out = workload.run(fx, inputs, probe)
        else:
            out = workload.run(fx, inputs, probe)
    except Exception:  # a raising operation is a failed run, reported below
        traceback.print_exc()
        p.wall_s, p.cpu_s = time.perf_counter() - w0, _cpu() - c0
        p.ops = [Op(f"{workload.name} raised", False)]
        return p
    p.wall_s, p.cpu_s = time.perf_counter() - w0, _cpu() - c0
    p.ops, outputs, p.solve_s = workload.check(fx, inputs, out, probe)
    p.digests = {k: digest(v) for k, v in outputs.items()}
    if tracer:
        p.layers = tracer.metrics(p.wall_s)
        p.spans = tracer.spans
        p.nested = tracer.well_nested()
    return p


def run(workload, seed: int, seconds: float, trace: bool, size: dict) -> dict:
    """All passes of one run; returns the run record, result included."""
    def set_up_again() -> list:
        return [setup(workload, seed, size)[2] for _ in range(SETUP_REPS)]

    setups: list = []
    passes: list = []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        setups += set_up_again()
        p = run_pass(workload, seed, size, trace and len(passes) % 2 == 1, len(passes))
        passes.append(p)
        setups.append(p.setup_s)
        if len(passes) == 1:
            # later passes start from a grown heap; the first is what a CLI run sees
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        gc.collect()
        if trace and not any(q.traced for q in passes):
            continue
        now = time.perf_counter()
        if now - start + (now - lap) > seconds:
            break
    setups += set_up_again()

    med = statistics.median
    plain = [p for p in passes if not p.traced]
    if trace:
        traced = [p for p in passes if p.traced]
        units = metric_units()
        values = {k: med([p.layers[k] for p in traced]) for k in units if k != "trace.overhead_s"}
        values["trace.overhead_s"] = (med([p.wall_s for p in traced])
                                      - med([p.wall_s for p in plain]))
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    else:
        values = {"wall_s": med([p.wall_s for p in plain]),
                  "cpu_s": med([p.cpu_s for p in plain]),
                  "solve_s": med([p.solve_s for p in plain]),
                  "peak_rss_mb": peak_mb,
                  "setup_s": med(setups)}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    ops = [op for p in passes for op in p.ops]
    stable = all(p.digests == passes[0].digests for p in passes)
    correct = (stable and all(p.nested for p in passes)
               and all(op.ok or op.known_defect for op in ops))
    result = {"correct": correct, "attempted": len(ops),
              "failed": sum(not op.ok for op in ops), "metrics": metrics}
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "setup_s": setups, "digests_stable": stable,
              "passes": [asdict(p) for p in passes], "result": result}
    return record


def report(record: dict) -> None:
    """Human-readable lines, then the result object as the last line."""
    result, passes = record["result"], record["passes"]
    print(f"workload {record['workload']} seed {record['seed']}: {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced)")
    for name, m in result["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(f"  ops_total {result['attempted']} count")
    print(f"  ops_failed {result['failed']} count")
    for op in passes[0]["ops"]:
        if not op["ok"]:
            note = " (known defect of the 2-d sweep diagnostic)" if op["known_defect"] else ""
            print(f"  failed op: {op['name']} {op['detail']}{note}")
    for name, d in passes[0]["digests"].items():
        print(f"  digest {name}: sha256 {d['sha256']} max_abs {d['max_abs']:.17g} "
              f"size {d['size']}")
    if not record["digests_stable"]:
        print("  outputs differ between passes of identical input")
    print(json.dumps(result))


def main(argv=None, size=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fracvexp" / "__init__.py").is_file():
        print(f"no fracvexp sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    # third-party imports are paid once, outside setup_s
    importlib.import_module("scipy.integrate")
    record = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace), size or {})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, default=float))
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
