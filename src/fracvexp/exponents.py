"""Variable exponents p(x,y) = Q(|x-y|) and their standing hypotheses.

The operator kernel is driven by a radial exponent profile Q.  This module
defines the spec data type, the built-in profile families (constant,
the piecewise arctan profile, the sigmoid profile, tabulated), and the
two hypothesis validators.  Validation is by dense deterministic sampling
plus randomized spot checks; it is numerical evidence, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EvaluationError, PreconditionError

#: Default right end of the sampling window for hypothesis validation.
T_MAX_DEFAULT = 100.0

#: Declared extrema must match sampled extrema to this absolute tolerance.
EXTREMA_TOL = 1e-12


@dataclass(frozen=True)
class ExponentSpec:
    """Radial variable exponent together with its declared envelope.

    Fields
    ------
    dimension : spatial dimension N (1 or 2 at desk scale)
    order     : fractional order s in (0, 1)
    q_function: map t >= 0 -> Q(t); must accept numpy arrays
    p_minus   : declared infimum of Q over [0, oo)
    p_plus    : declared supremum of Q
    m_bound   : the constant m in (0, 1) tied to the lower bound on p
    """

    dimension: int
    order: float
    q_function: Callable[[np.ndarray], np.ndarray]
    p_minus: float
    p_plus: float
    m_bound: float
    name: str = field(default="custom", compare=False)

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise PreconditionError(f"dimension must be 1 or 2, got {self.dimension}")
        if not 0.0 < self.order < 1.0:
            raise PreconditionError(f"order must lie in (0,1), got {self.order}")
        _check_m(self.m_bound)
        if not self.p_minus <= self.p_plus:
            raise PreconditionError("p_minus must not exceed p_plus")

    def q(self, t):
        """Evaluate Q at t (scalar or array), checking finiteness."""
        t_arr = np.asarray(t, dtype=float)
        out = np.asarray(self.q_function(t_arr), dtype=float)
        if not np.all(np.isfinite(out)):
            bad = np.atleast_1d(t_arr)[~np.isfinite(np.atleast_1d(out))]
            raise EvaluationError(f"Q(t) not finite at t={bad.flat[0]!r}")
        return out if out.shape else float(out)

    def kernel(self, r, q):
        """The kernel r^(-(N + s q)) at distances r > 0, given q = Q(r)."""
        return r ** (-(self.dimension + self.order * q))


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    witness: float | None = None


@dataclass(frozen=True)
class ValidationReport:
    hypothesis: str
    passed: bool
    checks: tuple[CheckResult, ...]


# ---------------------------------------------------------------------------
# Built-in profile families
# ---------------------------------------------------------------------------

def constant_q(value: float) -> Callable:
    def q(t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, float(value))
    return q


def example_i_q(m: float) -> Callable:
    """Piecewise profile: t on [0,1], arctan(t) - pi/4 past 1, shifted by 1 - 1/ln(m).

    Note the two branches overlap at t = 1 (both indicators are active
    there), so Q jumps down across t = 1: only t -> t^Q(t) is monotone,
    Q itself is not nondecreasing.
    """
    c = 1.0 - 1.0 / math.log(m)

    def q(t):
        t = np.asarray(t, dtype=float)
        out = np.where(t <= 1.0, t, np.arctan(t) - np.pi / 4.0) + c
        out = np.where(t == 1.0, 1.0 + (np.arctan(1.0) - np.pi / 4.0) + c, out)
        return out
    return q


def example_ii_q(m: float) -> Callable:
    """Sigmoid profile 1/(1+e^-t) + 1/2 - 1/ln(m); smooth and increasing."""
    c = 0.5 - 1.0 / math.log(m)

    def q(t):
        t = np.asarray(t, dtype=float)
        return 1.0 / (1.0 + np.exp(-t)) + c
    return q


def table_q(ts, qs) -> Callable:
    """Monotone piecewise-linear profile through (t_i, Q_i); clamped ends."""
    ts = np.asarray(ts, dtype=float)
    qs = np.asarray(qs, dtype=float)
    if ts.ndim != 1 or ts.shape != qs.shape or ts.size < 2:
        raise PreconditionError("table profile needs matching 1-d arrays, >= 2 entries")
    if np.any(np.diff(ts) <= 0):
        raise PreconditionError("table abscissae must be strictly increasing")

    def q(t):
        return np.interp(np.asarray(t, dtype=float), ts, qs)
    return q


def _check_m(m: float) -> None:
    if not 0.0 < m < 1.0:
        raise PreconditionError(f"m must lie in (0,1), got {m}")


def make_spec(kind: str, dimension: int, order: float, m: float,
              value: float | None = None,
              table: tuple | None = None) -> ExponentSpec:
    """Build an ExponentSpec for a named profile kind with exact declared extrema."""
    _check_m(m)  # before log(m)
    c = 1.0 - 1.0 / math.log(m)
    if kind == "constant":
        if value is None:
            raise PreconditionError("constant profile needs a value")
        return ExponentSpec(dimension, order, constant_q(value),
                            float(value), float(value), m, name=f"constant({value})")
    if kind == "example_i":
        # inf at t=0 is c; the isolated max 1+c sits at t=1
        return ExponentSpec(dimension, order, example_i_q(m),
                            c, 1.0 + c, m, name=f"example_i(m={m})")
    if kind == "example_ii":
        # Q(0) = 1 - 1/ln m; sup (not attained) is 3/2 - 1/ln m
        return ExponentSpec(dimension, order, example_ii_q(m),
                            c, 1.5 - 1.0 / math.log(m), m, name=f"example_ii(m={m})")
    if kind == "table":
        ts, qs = table
        return ExponentSpec(dimension, order, table_q(ts, qs),
                            float(np.min(qs)), float(np.max(qs)), m, name="table")
    raise PreconditionError(f"unknown exponent kind {kind!r}")


def spec_from_config(section: dict) -> ExponentSpec:
    """Create a spec from a plain config section (all values strings or numbers)."""
    kind = str(section.get("q_kind", "constant")).strip()
    dimension = int(section["dimension"])
    order = float(section["order"])
    m = float(section["m"])
    params = str(section.get("q_params", "")).strip()
    value = table = None
    try:
        if kind == "constant":
            value = float(params or 3.0)
        elif kind == "table":
            pairs = [p.split(":") for p in params.replace(";", ",").split(",") if p.strip()]
            table = ([float(t) for t, _ in pairs], [float(q) for _, q in pairs])
    except ValueError as exc:  # a non-number, or a table entry that is not t:q
        raise PreconditionError(f"q_params {params!r} do not fit q_kind {kind!r}") from exc
    return make_spec(kind, dimension, order, m, value=value, table=table)


# ---------------------------------------------------------------------------
# Hypothesis validation
# ---------------------------------------------------------------------------

def _sample_points(sample_count: int, t_max: float) -> np.ndarray:
    """Deterministic sampling: equispaced on [0, t_max] plus the landmarks 0, 1, t_max."""
    ts = np.linspace(0.0, t_max, sample_count)
    ts = np.union1d(ts, [0.0, 1.0, t_max])
    return ts


def validate_p1(spec: ExponentSpec, sample_count: int = 1000,
                t_max: float = T_MAX_DEFAULT) -> ValidationReport:
    """Check the boundedness hypothesis: codomain above 2, the m-tied lower
    bound, s*p_plus below the dimension, and declared-vs-sampled extrema.

    The m-tied bound is checked non-strictly: the built-in profiles attain
    1 - 1/ln(m) exactly at t = 0.
    """
    if sample_count < 2:
        raise PreconditionError("sample_count must be >= 2")
    ts = _sample_points(sample_count, t_max)
    qs = np.asarray(spec.q(ts), dtype=float)

    checks = []
    i_min = int(np.argmin(qs))
    i_max = int(np.argmax(qs))
    q_min, q_max = float(qs[i_min]), float(qs[i_max])

    ok = q_min > 2.0
    checks.append(CheckResult(
        "codomain_gt_2", ok,
        f"min sampled Q = {q_min:.12g}",
        witness=None if ok else float(ts[i_min])))

    bound = 1.0 - 1.0 / math.log(spec.m_bound)
    ok = spec.p_minus >= bound - EXTREMA_TOL
    checks.append(CheckResult(
        "m_lower_bound", ok,
        f"p_minus = {spec.p_minus:.12g} vs 1 - 1/ln(m) = {bound:.12g}"))

    sp = spec.order * spec.p_plus
    ok = sp < spec.dimension
    checks.append(CheckResult(
        "sp_plus_below_dimension", ok,
        f"s*p_plus = {sp:.12g} vs N = {spec.dimension}"))

    ok = abs(q_min - spec.p_minus) <= EXTREMA_TOL and abs(q_max - spec.p_plus) <= EXTREMA_TOL
    checks.append(CheckResult(
        "declared_extrema_consistent", ok,
        f"sampled [{q_min:.12g}, {q_max:.12g}] vs declared [{spec.p_minus:.12g}, {spec.p_plus:.12g}]",
        witness=None if ok else float(ts[i_min if abs(q_min - spec.p_minus) > EXTREMA_TOL else i_max])))

    return ValidationReport("P1", all(c.ok for c in checks), tuple(checks))


def validate_p2(spec: ExponentSpec, sample_count: int = 1000,
                t_max: float = T_MAX_DEFAULT) -> ValidationReport:
    """Check the radial-structure hypothesis on consecutive sample pairs:
    Q nondecreasing, and t -> t^Q(t) strictly increasing on (0, t_max].

    The power map is compared through Q(t)*ln(t), which is monotone iff
    t^Q(t) is and avoids overflow for large t.
    """
    if sample_count < 2:
        raise PreconditionError("sample_count must be >= 2")
    ts = _sample_points(sample_count, t_max)
    qs = np.asarray(spec.q(ts), dtype=float)

    checks = []
    diffs = np.diff(qs)
    bad = np.nonzero(diffs < -1e-14)[0]
    ok = bad.size == 0
    checks.append(CheckResult(
        "q_nondecreasing", ok,
        "nondecreasing on all sampled pairs" if ok
        else f"Q({ts[bad[0]]:.6g}) = {qs[bad[0]]:.10g} > Q({ts[bad[0]+1]:.6g}) = {qs[bad[0]+1]:.10g}",
        witness=None if ok else float(ts[bad[0]])))

    pos = ts > 0.0
    tp, qp = ts[pos], qs[pos]
    g = qp * np.log(tp)
    gd = np.diff(g)
    bad = np.nonzero(gd <= 0.0)[0]
    ok = bad.size == 0
    checks.append(CheckResult(
        "t_pow_q_strictly_increasing", ok,
        "strictly increasing on all sampled pairs" if ok
        else f"t^Q(t) non-increasing between t = {tp[bad[0]]:.6g} and {tp[bad[0]+1]:.6g}",
        witness=None if ok else float(tp[bad[0]])))

    return ValidationReport("P2", all(c.ok for c in checks), tuple(checks))


def validate(spec: ExponentSpec, sample_count: int = 1000,
             t_max: float = T_MAX_DEFAULT) -> ValidationReport:
    """Run both hypotheses and merge the check lists."""
    r1 = validate_p1(spec, sample_count, t_max)
    r2 = validate_p2(spec, sample_count, t_max)
    return ValidationReport("P1+P2", r1.passed and r2.passed, r1.checks + r2.checks)


def eval_p(spec: ExponentSpec, x, y) -> float:
    """p(x, y) = Q(|x - y|); symmetric in (x, y) by construction."""
    dx = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = float(np.sqrt(np.sum(dx * dx)))
    return float(spec.q(r))
