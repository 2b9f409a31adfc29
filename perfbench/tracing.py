"""Spans and counters recorded around the calls into each fracvexp module.

The layers are the package modules.  A wrapper replaces the binding that
every module holds for a wrapped function (callers import functions by
name, e.g. ``ball_solver.apply_plan``), so calls are seen whichever module
makes them.  A wrapped entry point that a later version of the package no
longer has is recorded as absent instead of failing.

Spans live in memory as ``[name, start, end, parent, pass_id]`` and are
written out by ``run.py`` when the benchmark ends.  Counters are computed
from outside the program: plan sizes from the ``nbytes`` of the returned
plan arrays, bytes read per apply from the node count, solver counts from
the returned ``SolveReport``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

ROOT_SPAN = "workload"


def _plan_counts(args, kwargs, plan):
    nbytes = sum(v.nbytes for v in vars(plan).values() if isinstance(v, np.ndarray))
    return {"points": plan.n_points, "nodes": plan.wk.size, "plan_mb_max": nbytes / 1e6}


def _apply_counts(args, kwargs, result):
    plan = args[0]
    stencil = 3 ** plan.meta["dim"]
    # gather of idx (int64) and coef per stencil slot, plus ext, bias, wk, pm2, tag
    return {"nodes": plan.wk.size,
            "gb_read_computed": plan.wk.size * (16 * stencil + 33) / 1e9}


def _solve_counts(args, kwargs, report):
    applies, accepted = report.applies, report.iterations
    checkpoints = accepted // kwargs.get("checkpoint_every", 25)
    return {"applies": applies, "iterations": accepted,
            "rejected": max(0, applies - 1 - accepted - checkpoints)}


def _points(position):
    def count(args, kwargs, result):
        return {"points": len(np.atleast_2d(args[position]))}
    return count


def _sweep_counts(args, kwargs, report):
    return {"planes": len(report.lambda_grid)}


def _lemma_counts(args, kwargs, report):
    return {"samples": sum(v for k, v in kwargs.items() if k.startswith("n_"))}


#: (module, attribute, metric prefix, counter, counter units)
LAYERS = [
    ("quadrature", "build_plan", "quadrature.build_plan", _plan_counts,
     {"points": "count", "nodes": "count", "plan_mb_max": "MB"}),
    ("quadrature", "_frozen_ratio", "quadrature.frozen_ratio", None, {}),
    ("_backend", "apply_plan", "backend.apply_plan", _apply_counts,
     {"nodes": "count", "ns_per_node": "ns", "gb_read_computed": "GB"}),
    ("ball_solver", "manufacture", "ball_solver.manufacture", None, {}),
    ("ball_solver", "solve", "ball_solver.solve", _solve_counts,
     {"applies": "count", "iterations": "count", "rejected": "count",
      "accept_ratio": "ratio"}),
    ("nonlocal_operator", "eval_plap", "nonlocal_operator.eval_plap", None, {}),
    ("nonlocal_operator", "eval_plap_field", "nonlocal_operator.eval_plap_field",
     _points(2), {"points": "count"}),
    ("max_principles", "check_strong_mp", "max_principles.check_strong_mp", None, {}),
    ("max_principles", "check_antisym_mp", "max_principles.check_antisym_mp", None, {}),
    ("max_principles", "boundary_estimate_probe",
     "max_principles.boundary_estimate_probe", None, {}),
    ("max_principles", "j1_j2_split", "max_principles.j1_j2_split", None, {}),
    ("moving_planes", "sweep", "moving_planes.sweep", _sweep_counts, {"planes": "count"}),
    ("grids", "SampledFunction.point_eval", "grids.point_eval", _points(1),
     {"points": "count"}),
    ("lemma_suite", "certify_lemmas", "lemma_suite.certify_lemmas", _lemma_counts,
     {"samples": "count"}),
    ("exponents", "validate", "exponents.validate", None, {}),
    ("cli", "run_reproduce_all", "cli.run_reproduce_all", None, {}),
]

#: per-layer self time and its share of the traced wall time
LAYER_NAMES = list(dict.fromkeys(prefix.split(".")[0] for _, _, prefix, _, _ in LAYERS))

TRACE_METRICS = {"trace.wall_s": "s", "trace.overhead_s": "s",
                 "trace.unattributed_s": "s", "trace.spans": "count",
                 "trace.absent_entry_points": "count"}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for _, _, prefix, _, counters in LAYERS:
        units.update({f"{prefix}.calls": "count", f"{prefix}.busy_s": "s",
                      f"{prefix}.self_s": "s"})
        units.update({f"{prefix}.{k}": u for k, u in counters.items()})
    for layer in LAYER_NAMES:
        units.update({f"{layer}.self_s": "s", f"{layer}.share": "ratio"})
    units.update(TRACE_METRICS)
    return units


class Tracer:
    """In-memory span and counter recorder for one pass."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.absent: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid][2] = time.perf_counter()

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    full = f"{name}.{key}"
                    if key.endswith("_max"):
                        self.counts[full] = max(self.counts[full], value)
                    else:
                        self.counts[full] += value
            return result
        return traced

    def install(self, layers=LAYERS) -> None:
        """Wrap each entry point of `layers` in the imported fracvexp modules."""
        package = {k: m for k, m in sys.modules.items()
                   if k == "fracvexp" or k.startswith("fracvexp.")}
        for module, attr, name, counter, _ in layers:
            owner = package.get(f"fracvexp.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.absent.append(f"{module}.{attr}")
                continue
            wrapper = self.wrap(name, original, counter)
            setattr(owner, leaf, wrapper)
            for mod in package.values():
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapper)

    def self_times(self) -> list:
        """Per span: duration minus the part its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def metrics(self, wall: float) -> dict:
        """Per-layer metrics of this pass (everything but trace.overhead_s)."""
        calls, busy, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for (name, start, end, _, _), self_s in zip(self.spans, self.self_times()):
            calls[name] += 1
            busy[name] += end - start
            own[name] += self_s
        out = {}
        for _, _, prefix, _, counters in LAYERS:
            out[f"{prefix}.calls"] = calls[prefix]
            out[f"{prefix}.busy_s"] = busy[prefix]
            out[f"{prefix}.self_s"] = own[prefix]
            for key in counters:
                out[f"{prefix}.{key}"] = self.counts[f"{prefix}.{key}"]
        nodes = out["backend.apply_plan.nodes"]
        out["backend.apply_plan.ns_per_node"] = (
            out["backend.apply_plan.busy_s"] * 1e9 / nodes if nodes else 0.0)
        applies = out["ball_solver.solve.applies"]
        out["ball_solver.solve.accept_ratio"] = (
            out["ball_solver.solve.iterations"] / applies if applies else 0.0)
        for layer in LAYER_NAMES:
            self_s = sum(v for k, v in own.items() if k.split(".")[0] == layer)
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.share"] = self_s / wall
        out["trace.wall_s"] = wall
        out["trace.unattributed_s"] = own[ROOT_SPAN]
        out["trace.spans"] = len(self.spans)
        out["trace.absent_entry_points"] = len(self.absent)
        return out

    def well_nested(self) -> bool:
        """Every span closes inside its parent, and siblings do not overlap."""
        last_end: dict = {}
        for name, start, end, parent, _ in self.spans:
            if end is None or end < start:
                return False
            if parent is not None:
                _, p_start, p_end, _, _ = self.spans[parent]
                if start < p_start or end > p_end or start < last_end.get(parent, p_start):
                    return False
                last_end[parent] = end
        return True


class Probe:
    """Keeps the results and wall time of named bindings in one module.

    Used on ``cli`` to read the solver outputs and the solve time out of a
    single ``run_reproduce_all`` call; it costs two clock reads per call.
    """

    def __init__(self, module, names):
        self.results = {n: [] for n in names}
        self.elapsed = dict.fromkeys(names, 0.0)
        for n in names:
            setattr(module, n, self._wrap(n, getattr(module, n)))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.elapsed[name] += time.perf_counter() - t0
            self.results[name].append(result)
            return result
        return probed

    def seconds(self, *names) -> float:
        return sum(self.elapsed[n] for n in names)
