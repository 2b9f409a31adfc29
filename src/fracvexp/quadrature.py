"""Quadrature plans for the principal-value evaluation.

The singular integral is split as in the pointwise well-definedness
argument: a symmetric-pair region around the evaluation point (dyadically
graded toward the singularity, so the leading odd part cancels pair by
pair), geometric annuli out to an effective truncation radius, and a
discarded far tail certified by the kernel decay r^(-(N + s p_minus)).

A plan freezes, per evaluation point, every quadrature node's kernel
weight, exponent, and stencil into flat arrays; applying a plan to a value
vector is then one sparse product, a power and a reduce
(`_backend.apply_plan`, the one kernel pass).  Where u comes from at a
point (interpolant, exterior rule, mirrored view) is decided by the box,
ball and exterior tests of `grids` alone, but for the far nodes below,
which take the exterior rule's one value.

Every stencil indexes the extended value vector [u.values, plan.ext_values]:
slot k past the grid nodes holds the k-th distinct exterior value, in order
of first use.  Every stencil, row or center, is a row of one CSR matrix `R`
with a column per entry of that vector, zero coefficients dropped and int32
column indices: the nnz plan rows, then point i's center as row nnz + i.
An interpolated stencil's coefficients are Lagrange weights, which sum to
one, so the kernel forms a row's difference as its center row's product with
the values minus its own, and no per-row sum is stored.  An exterior row or
center is one entry, 1.0 on its slot's column n + slot.
Each point's segment of rows holds its interior nodes first
(those whose value comes from the interpolant), in node enumeration order.
After them comes one row per distinct exterior key (p - 2, slot), in order
of first appearance: nodes sharing a key differ only in their weight, so
they merge into one row whose weight is the sum of theirs, added in
enumeration order.  Under the zero and constant exterior rules this
removes most exterior nodes.  The Gauss reference rule behind every radial
interval is computed once per order, and each radial rule once per delta.

`build_plan` makes these rows a block of points at a time, in two passes
over the same blocks.  The first sizes the plan: each point's interior rows
(its interpolated near nodes) and each block's entries (per interior row,
the product of its axes' nonzero weight counts).  It merges the block's
exterior nodes into their rows and keeps them (a few percent of the rows
under a named rule) with each near node's entry count (one byte, 0 where the
node is not interpolated), so the box, ball and exterior tests run once per
node.  Then every array is allocated once, at its final size, the centers
(`linear_form` at the points) are written after the node rows, and the held
tables' box tests are dropped.  The second pass forms one point's stencils
at a time, at its interpolated nodes only, and writes their nonzero
coefficients straight into its run of entries; `rptr` is written as running
sums.  So a build holds about one copy of the plan and no dense (rows,
stencil) array beyond one point's.  Exterior keys also carry the point, so
every row and weight sum is the one a point built alone gets.

Only near nodes get stencils, from per-axis tables (`offset_form`).  A near
node's axis coordinate is fl(x_a + fl(r d_a)), a function of the point's
coordinate and the node's offset, so the box test, square and axis stencil
are tabled once per run of points over (distinct coordinate, offset) and
gathered per point; lattice points share a few coordinates per axis.  Under
a view, T(x + r d) = T(x) + r R d (T the reflection, R = I - 2 e e^T its
linear part), so a view's tables are its base grid's at the mirrored points
and offsets, and every plan's near rows take one path.  One run's tables
are held at a time: a set with one pairing radius builds them once, one
with several builds each run's again for the second pass.  A node at radius r > r_far =
max |x'| + sqrt(N) L (x' the point the grid reads: its mirror image under a
view) lies outside the box in every direction, so under a named exterior
rule it reads that rule's one value (`_far_field`); at the default
tolerance about 60% of the nodes are far.  Far rows come from the template:
once per pairing radius its far nodes are grouped by p - 2, and each point
gets one pseudo-row per group, keyed after its near exterior nodes, so a
far key equal to a near key merges into that row.  One
`np.bincount` over the near exterior nodes and then every far node adds
each merged weight node by node in enumeration order, as if every node had
been keyed.  A callable rule has no far radii.

The rows do not read the node values, only where the values come from, so
one point set's rows serve every value vector.  `r_eff` is sized for
|u| <= max(max|values|, 1), the range the lab's functions live in, so a grid
has one `r_eff` unless some |u| exceeds 1, and `ball_solver.manufacture`,
`solve` and the auto-mask on u* share one row set.  The last row set built
is held in a one-entry memo, keyed on everything the rows read: `spec`,
`cfg`, `r_eff`, the grid's shape, extent, exterior rule and smoothness hint,
a `ReflectedFunction`'s plane and the exact bytes of the points.  A callable
exterior rule is keyed by identity, so it must be a fixed function of
position.  The held arrays are read-only, and a miss drops the held entry
before it builds, so at most one row set is held beyond what callers keep;
`R` is built once per row set and held with it.  What reads the values runs
on every call, hit or miss: the input checks, `r_eff`, the tail certificate
`tail_bound` (one bound, at the largest far difference over the points) and
a full `apply_plan` pass, whose operator values, the plain sums over the
graded levels, the plan hands back as `sums`: a point set costs one pass.
Each call gets its own frozen `EvalPlan` with its own `tail_bound`, `sums`
and `meta`.
"""

from __future__ import annotations

import decimal
import functools
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from ._backend import apply_plan
from .errors import PreconditionError, TailError
from .exponents import ExponentSpec
from .grids import ReflectedFunction, SampledFunction

#: Hard ceiling on the auto-raised truncation radius.  Annuli grow
#: geometrically, so even radii this large cost only ~50 intervals.
R_EFF_CAP = 1e15

#: Width ratio of the geometric annuli between pairing radius and tail.
ANNULUS_RATIO = 2.0

#: Nodes per block of `build_plan`; bounds its temporaries as the plan grows.
PLAN_BLOCK = 2 ** 16

#: (key, rows) of the last plan built, or None: the one-entry row memo of `build_plan`.
_held = None


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs of the principal-value quadrature.

    pairing_radius   : cap on the symmetric-pair region radius delta
    graded_levels    : dyadic refinement levels toward the singularity
    nodes_per_level  : Gauss nodes per radial interval
    angular_nodes    : equispaced angles in 2-d (even: antipodal pairing)
    tail_radius      : floor on the outer truncation radius r_eff
    tail_tolerance   : absolute bound allowed for the discarded tail
    """

    pairing_radius: float = 0.25
    graded_levels: int = 12
    nodes_per_level: int = 8
    angular_nodes: int = 32
    tail_radius: float = 4.0
    tail_tolerance: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.pairing_radius <= 1.0:
            raise PreconditionError("pairing_radius must lie in (0, 1]")
        if self.graded_levels < 1 or self.nodes_per_level < 1:
            raise PreconditionError("graded_levels and nodes_per_level must be >= 1")
        if self.angular_nodes < 4 or self.angular_nodes % 2:
            raise PreconditionError("angular_nodes must be even and >= 4")
        for name in ("tail_radius", "tail_tolerance"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise PreconditionError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class EvalPlan:
    """Frozen quadrature for a batch of evaluation points (see module docs).

    Every stencil is a row of `R`, a scipy CSR matrix over the stored arrays
    `rval`, `rcol` and `rptr` (int32 indices; int64 past 2^31 entries): the
    nnz plan rows, then point i's center as row nnz + i.  A stencil's entries
    are Lagrange weights that sum to one (or one 1.0 on an exterior slot), so
    no per-row sum is stored: a row's difference is its center row's product
    with the values minus its own (see `_backend`).  `R` is built once per
    row set, and the arrays stay fields, so byte counts and comparisons of
    plans see them.  The row arrays are read-only and may be shared with
    other plans on the same point set; `tail_bound`, `sums` and `meta` are
    each plan's own.  The fields cannot be assigned.
    """

    ptr: np.ndarray        # (npts+1,) segment offsets: point i's rows are ptr[i]..ptr[i+1]-1
    rptr: np.ndarray       # (nnz+npts+1,) offsets of each row's entries; center i is row nnz+i
    rcol: np.ndarray       # (entries,) columns in [values, ext_values] (n + slot if exterior)
    rval: np.ndarray       # (entries,) nonzero stencil coefficients (1.0 if exterior)
    R: sparse.csr_array = field(repr=False, compare=False)  # CSR view of rval, rcol, rptr
    wk: np.ndarray         # (nnz,) quadrature weight times kernel, summed over a merged key
    pm2: np.ndarray        # (nnz,) p(r) - 2
    ext_values: np.ndarray  # (slots,) exterior values, slot k read as value n + k
    r_eff: float
    tail_bound: float
    sums: np.ndarray | None = None  # (npts,) apply_plan on the values the plan was built on
    meta: dict = field(default_factory=dict)

    @property
    def n_points(self) -> int:
        return len(self.ptr) - 1

    def counters(self) -> dict:
        """Deterministic size counters and plan constants, for reports."""
        return {"points": self.n_points, "nodes": self.wk.size,
                "entries": int(self.rptr[self.wk.size]),  # node rows only
                "nodes_uncollapsed": self.meta["nodes_uncollapsed"],
                "r_eff": self.r_eff, "tail_bound": self.tail_bound}


@functools.lru_cache(maxsize=None)
def _legendre_rule(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n (read-only)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_on(a: float, b: float, n: int):
    x, w = _legendre_rule(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


@functools.lru_cache(maxsize=64)
def radial_rule(delta: float, r_max: float, cfg: QuadratureConfig):
    """Radii and dr-weights: dyadic levels inside delta, geometric annuli beyond.

    Truncation below delta*2^-levels is benign: paired level contributions
    decay geometrically with exponent Q(0+)(1-s) > 0.  Computed once per
    (delta, r_max, cfg); the arrays are read-only.
    """
    rs, ws = [], []
    for lev in range(cfg.graded_levels - 1, -1, -1):
        a = delta * 2.0 ** (-(lev + 1))
        b = delta * 2.0 ** (-lev)
        x, w = _gauss_on(a, b, cfg.nodes_per_level)
        rs.append(x)
        ws.append(w)
    a = delta
    while a < r_max:
        b = min(a * ANNULUS_RATIO, max(r_max, a * 1.0000001))
        x, w = _gauss_on(a, b, cfg.nodes_per_level)
        rs.append(x)
        ws.append(w)
        a = b
    rs, ws = np.concatenate(rs), np.concatenate(ws)
    rs.flags.writeable = ws.flags.writeable = False
    return rs, ws


def directions(dim: int, angular_nodes: int):
    """Antipodally paired unit directions and their angular weights."""
    if dim == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    theta = 2.0 * np.pi * np.arange(angular_nodes) / angular_nodes
    d = np.column_stack([np.cos(theta), np.sin(theta)])
    w = np.full(angular_nodes, 2.0 * np.pi / angular_nodes)
    return d, w


def sphere_measure(dim: int) -> float:
    return 2.0 if dim == 1 else 2.0 * np.pi


def tail_radius_needed(f_max: float, dim: int, s: float, p_minus: float,
                       tol: float) -> float:
    """Smallest R >= 1 with |f|*omega_N*R^(-s p_minus)/(s p_minus) <= tol, for f_max > 0."""
    sp = s * p_minus
    r = (f_max * sphere_measure(dim) / (tol * sp)) ** (1.0 / sp)
    return max(1.0, r)


def tail_bound_at(f_max: float, dim: int, s: float, p_minus: float, r: float) -> float:
    sp = s * p_minus
    return f_max * sphere_measure(dim) * r ** (-sp) / sp


def _f_abs_max(t_bound: float, p_minus: float, p_plus: float) -> float:
    if t_bound <= 0.0:
        return 0.0
    return max(t_bound ** (p_minus - 1.0), t_bound ** (p_plus - 1.0))


def truncation_radius(spec: ExponentSpec, values: np.ndarray, extent: float,
                      cfg: QuadratureConfig) -> float:
    """Outer radius that keeps the discarded tail within cfg.tail_tolerance.

    Sized for every |u| <= max(max|values|, 1) (one radius per grid unless some
    |u| exceeds 1) and at least the box diameter 2·sqrt(N)·extent, so that from
    any point in the box everything beyond the radius takes the exterior rule.
    """
    # conservative bound on |u(x)-u(y)|; 10% headroom absorbs interpolation overshoot
    t_bound = 2.2 * float(np.max(np.abs(values), initial=1.0))
    f_max = _f_abs_max(t_bound, spec.p_minus, spec.p_plus)
    r_eff = max(cfg.tail_radius, 2.0 * np.sqrt(spec.dimension) * extent, tail_radius_needed(
        f_max, spec.dimension, spec.order, spec.p_minus, cfg.tail_tolerance))
    if r_eff > R_EFF_CAP:
        raise TailError(
            f"tail bound needs truncation radius {r_eff:.3g} beyond the supported cap; "
            "raise tail_tolerance or rescale the data")
    return r_eff


def _pairing_radius(x: np.ndarray, extent: float, cfg: QuadratureConfig) -> np.ndarray:
    """delta per point (last axis): cfg.pairing_radius, capped at half the distance to the box."""
    return np.minimum(cfg.pairing_radius, 0.5 * np.min(extent - np.abs(x), axis=-1))


def paired_nodes(x: np.ndarray, extent: float, r_eff: float, cfg: QuadratureConfig,
                 dirs: np.ndarray, aw: np.ndarray):
    """Radii, positions and r^(N-1) dr dtheta weights of the nodes around x.

    `x` is one point or a block of points with one pairing radius.  Nodes
    run point by point, then radius-major, then by direction; the radii and
    weights are those of one point.  A plan sums its interior nodes in this
    order, then its merged exterior rows in order of first appearance (see
    the module docs).
    """
    N = np.shape(x)[-1]
    delta = float(np.min(_pairing_radius(x, extent, cfg)))
    rs, wr = radial_rule(delta, r_eff, cfg)
    w_node = ((wr * rs ** (N - 1))[:, None] * aw[None, :]).ravel()
    pos = np.reshape(x, (-1, 1, 1, N)) + rs[:, None, None] * dirs[None, :, :]
    return rs, pos.reshape(-1, N), w_node


def _far_field(u, pts: np.ndarray):
    """(r_far, c): every node x + r d around a point of `pts` with r > r_far reads c.

    The grid reads u at x' + r d', x' the point itself or its mirror image
    under a view, so r > max |x'| + sqrt(N) L puts the node outside the box
    [-L, L]^N in every direction, where a named exterior rule has one value
    c.  A callable rule's value varies per node: (inf, 0.0).  The relative
    headroom of 1e-9 absorbs the rounding of the node positions.
    """
    grid, x = (u.base, u.plane.reflect(pts)) if isinstance(u, ReflectedFunction) else (u, pts)
    c = grid.exterior_value
    if c is None:
        return np.inf, 0.0
    r = float(np.max(np.linalg.norm(x, axis=1), initial=0.0))
    return (r + np.sqrt(grid.dim) * grid.extent) * (1.0 + 1e-9), c


def build_plan(spec: ExponentSpec, u, points, cfg: QuadratureConfig) -> EvalPlan:
    """Assemble the quadrature plan for `points` (each strictly inside the box).

    `u` may be a SampledFunction or a ReflectedFunction view.  Near rows come
    from `u.offset_form`, per-axis stencil tables (a view's are its base
    grid's at the mirrored points and offsets, so the view needs no
    resampling); `u.linear_form` gives every center row.  `r_eff` is sized for
    |u| <= max(max|values|, 1), so the plan stays valid on other value
    vectors in that range (solver iterates), and a grid's plans share it.
    An empty point set gives an empty plan.

    Rows are built a block of consecutive points with one pairing radius at
    a time, up to `PLAN_BLOCK` nodes; the points share one node template
    (kernel weight, p - 2), and the plan does not depend on the blocking.
    One pass over the blocks sizes the plan, a second writes each block into
    arrays allocated once (see the module docs).

    Every call checks its inputs, sizes `r_eff` from the values, certifies the
    tail (`tail_bound`; a `TailError` names the radius that certifies it) and
    runs one `apply_plan` pass over the values, whose operator values it
    hands back as `sums`.
    The rows (every other array, `r_eff` and `meta`) do not read the values,
    so calls that agree on `spec`, `cfg`, `r_eff`, the grid's shape, extent,
    exterior rule and smoothness hint, a view's plane and the exact points
    share one read-only row set (see the module docs).
    """
    grid = u.base if isinstance(u, ReflectedFunction) else u
    if not isinstance(grid, SampledFunction):
        raise PreconditionError("u must be a SampledFunction or ReflectedFunction")
    if grid.dim != spec.dimension:
        raise PreconditionError(
            f"grid dimension {grid.dim} does not match spec dimension {spec.dimension}")

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != grid.dim:
        raise PreconditionError(f"points must have {grid.dim} coordinates")
    inside = grid.inside_box(pts, strict=True)
    if not np.all(inside):
        bad = np.nonzero(~inside)[0]
        raise PreconditionError(
            f"evaluation points must be strictly inside the grid box; offenders: {bad.tolist()}")

    s, N = spec.order, spec.dimension
    r_eff = truncation_radius(spec, grid.values, grid.extent, cfg)
    dirs = directions(N, cfg.angular_nodes)[0]

    # certify the discarded tail before building any row: the bound grows with
    # t, so the one at the largest far difference is the largest of the points'
    far = u.point_eval((pts[:, None, :] + r_eff * dirs[None, :, :]).reshape(-1, N))
    t_far = np.max(np.abs(u.point_eval(pts)[:, None] - far.reshape(len(pts), len(dirs))),
                   initial=0.0)
    fb = _f_abs_max(float(t_far), spec.p_minus, spec.p_plus)
    bound = tail_bound_at(fb, N, s, spec.p_minus, r_eff)
    if bound > cfg.tail_tolerance * (1.0 + 1e-9):
        # the worst point's radius, rounded up to the printed digits so that it certifies
        need = decimal.Context(prec=6, rounding=decimal.ROUND_CEILING).create_decimal(
            tail_radius_needed(fb, N, s, spec.p_minus, cfg.tail_tolerance))
        raise TailError(
            f"discarded tail bound {bound:.3g} exceeds tolerance at R = {r_eff:.6g}; "
            f"use tail_radius >= {float(need):.6g}")

    rows = _plan_rows(spec, u, grid, pts, cfg, r_eff)
    return replace(rows, tail_bound=float(bound), sums=apply_plan(rows, grid.values),
                   meta=dict(rows.meta))


def _drop_rows() -> None:
    """Forget the held rows, so that the next `build_plan` builds its own."""
    global _held
    _held = None


def _plan_rows(spec: ExponentSpec, u, grid: SampledFunction, pts: np.ndarray,
               cfg: QuadratureConfig, r_eff: float) -> EvalPlan:
    """The value-independent part of `build_plan`: every row, read-only.

    The result is held under a key of everything the stencils and the node
    template read (see `build_plan`); its `tail_bound` is NaN and its `sums` None.
    """
    global _held
    plane = u.plane if isinstance(u, ReflectedFunction) else None
    key = (spec, cfg, r_eff, grid.shape, grid.extent, grid.exterior_rule,
           grid.smoothness_hint, plane, pts.tobytes())
    if _held is not None and _held[0] == key:
        return _held[1]
    _drop_rows()  # free the held rows before this build's peak

    N = spec.dimension
    dirs, aw = directions(N, cfg.angular_nodes)
    n_dirs = len(dirs)
    c_interp, c_idx, c_coef, c_ext = u.linear_form(pts)
    r_far, c_far = _far_field(u, pts)
    starts = np.flatnonzero(np.diff(_pairing_radius(pts, grid.extent, cfg), prepend=np.nan))

    run = None  # (start, node template, form) of the one run whose tables are held

    def blocks():
        """Each block of points lo..hi in turn, with its run's node template,
        its run's `OffsetForm` (one run's tables are held at a time) and its
        first point's index in that form."""
        nonlocal run
        for a, b in zip(starts, [*starts[1:], len(pts)]):  # runs of points with one delta
            if run is None or run[0] != a:
                run = None  # drop the held tables before building these
                rs, _, w_node = paired_nodes(pts[a], grid.extent, r_eff, cfg, dirs, aw)
                wk_t = w_node * np.repeat(spec.kernel(rs), n_dirs)
                pm2_t = np.repeat(np.asarray(spec.q(rs), dtype=float) - 2.0, n_dirs)
                # the radii ascend, so a point's near nodes are the first m_near of its
                # template, at offsets fl(r d); its far nodes all read c_far and fall
                # into one group per p - 2, each led by its first node
                m_near = int(np.count_nonzero(rs <= r_far)) * n_dirs
                offsets = (rs[:m_near // n_dirs, None, None] * dirs[None, :, :]).reshape(m_near, N)
                tm = (wk_t, pm2_t, m_near, *_first_use_groups(pm2_t[m_near:]))
                run = (a, tm, u.offset_form(pts[a:b], offsets))
            _, tm, form = run
            per = max(1, PLAN_BLOCK // len(tm[0]))
            for lo in range(a, b, per):
                yield lo, min(lo + per, b), tm, form, lo - a

    # size the plan: each point's rows and the interior entries; the merged
    # exterior rows (one entry each, a few percent of the rows under a named
    # rule) are made here and kept for the second pass, with each near node's
    # entry count, 0 where it is not interpolated (a stencil has a nonzero)
    ptr = np.zeros(len(pts) + 1, dtype=np.int64)
    sized, n_ent, n_uncollapsed = [], 0, 0
    for lo, hi, tm, form, j0 in blocks():
        interp, ext, nz = form.block(j0, j0 + hi - lo)
        *rows_x, n_ext = _exterior_rows(tm, interp, ext, c_far)
        sized.append((np.where(interp, nz, np.int8(0)), *rows_x))
        ptr[lo + 1:hi + 1] = np.count_nonzero(interp, axis=1) + n_ext
        n_ent += int(np.sum(nz, where=interp)) + len(rows_x[0])
        n_uncollapsed += (hi - lo) * len(tm[0])
    np.cumsum(ptr, out=ptr)
    n_out = sum(len(x_t) for _, x_t, _, _ in sized)
    if run is not None:  # the second pass reads only the held tables' stencils
        run[2].drop_tests()

    # then allocate every array once and fill it block by block; center i is
    # row nnz + i: its stencil's nonzero coefficients, or one exterior entry
    nnz, c_nz = int(ptr[-1]), c_coef != 0.0
    c_ent = np.ones(len(pts), dtype=np.int64)
    c_ent[c_interp] = np.count_nonzero(c_nz, axis=1)
    c_out = np.repeat(~c_interp, c_ent)  # per center entry: is it exterior
    n_all = n_ent + len(c_out)
    index = np.int32 if n_all < 2 ** 31 else np.int64
    rptr = np.zeros(nnz + len(pts) + 1, dtype=index)
    rcol, rval = np.empty(n_all, dtype=index), np.empty(n_all)
    rptr[nnz + 1:] = n_ent + np.cumsum(c_ent)
    rcol[n_ent:][~c_out], rval[n_ent:][~c_out] = c_idx[c_nz], c_coef[c_nz]
    wk, pm2 = np.empty(nnz), np.empty(nnz)
    # exterior rows, then exterior centers, read their slots in order of first use
    ext_all = np.empty(n_out + np.count_nonzero(~c_interp))
    ext_all[n_out:] = c_ext[~c_interp]
    ext_at = np.empty(len(ext_all), dtype=np.int64)  # the entry of each exterior row or center
    ext_at[n_out:] = n_ent + np.flatnonzero(c_out)
    k0 = 0
    for (lo, hi, tm, form, j0), (nz, x_t, x_val, x_wk) in zip(blocks(), sized):
        wk_t, pm2_t = tm[:2]
        interp = nz != 0
        # each point's interior rows in enumeration order, then its merged
        # exterior rows
        in_j, in_t = np.nonzero(interp)
        n_in = np.bincount(in_j, minlength=hi - lo)
        r0, r1, k1 = ptr[lo], ptr[hi], k0 + len(x_t)
        ext_row = np.repeat(np.tile([False, True], hi - lo),
                            np.column_stack([n_in, np.diff(ptr[lo:hi + 1]) - n_in]).ravel())
        row_t = np.empty(r1 - r0, dtype=np.int64)
        row_t[~ext_row], row_t[ext_row] = in_t, x_t
        wk[r0:r1][~ext_row], wk[r0:r1][ext_row] = wk_t[in_t], x_wk
        pm2[r0:r1] = pm2_t[row_t]
        # an interior row holds its stencil's nonzero coefficients in stencil
        # order; an exterior row one entry, set once every slot is known
        ent = np.ones(r1 - r0, dtype=np.int64)
        ent[~ext_row] = nz[interp]
        rptr[r0 + 1:r1 + 1] = rptr[r0] + np.cumsum(ent)
        ext_at[k0:k1], ext_all[k0:k1] = rptr[r0 + 1:r1 + 1][ext_row] - 1, x_val
        # a point's interior entries are one run in the plan, formed and written
        # one point at a time
        for j, e in enumerate(rptr[ptr[lo:hi]]):
            idx, coef = form.stencils(j0 + j, interp[j])
            nonzero = coef != 0.0
            cols = idx[nonzero]
            rcol[e:e + cols.size], rval[e:e + cols.size] = cols, coef[nonzero]
        k0 = k1

    first, slot = _first_use_groups(ext_all)
    n = grid.values.size
    rcol[ext_at], rval[ext_at] = n + slot, 1.0

    arrays = {"ptr": ptr, "rptr": rptr, "rcol": rcol, "rval": rval, "wk": wk, "pm2": pm2,
              "ext_values": ext_all[first]}
    for a in arrays.values():
        a.flags.writeable = False
    R = sparse.csr_array((rval, rcol, rptr), shape=(nnz + len(pts), n + len(first)))
    rows = EvalPlan(**arrays, R=R, r_eff=float(r_eff), tail_bound=float("nan"),
                    meta={"dim": N, "nodes_uncollapsed": n_uncollapsed})
    _held = (key, rows)
    return rows


def _exterior_rows(tm, interp, ext, c_far):
    """A block's merged exterior rows, each point's in order of first appearance.

    The keys are (p - 2, exterior value, point) of the near nodes that
    `interp` (P, T) leaves out, in node order, then of one pseudo-node per
    point and far group of the template `tm`, which reads `c_far`.
    Returns per row its key's first template node, its exterior value and
    its weight, then each point's row count.
    """
    wk_t, pm2_t, m_near, f_first, f_group = tm
    P = len(interp)
    out_j, out_t = np.nonzero(~interp)
    key_j = np.concatenate([out_j, np.repeat(np.arange(P), len(f_first))])
    key_t = np.concatenate([out_t, np.tile(m_near + f_first, P)])
    ext_k = np.concatenate([ext[~interp], np.full(P * len(f_first), c_far)])
    first, group = _first_use_groups(pm2_t[key_t], ext_k, key_j)
    # every far node joins its pseudo-row's group after all near nodes, so
    # each merged weight adds its nodes in enumeration order
    g_far = group[len(out_j):].reshape(P, -1)[:, f_group].ravel()
    wk_ext = np.bincount(np.concatenate([group[:len(out_j)], g_far]),
                         np.concatenate([wk_t[out_t], np.tile(wk_t[m_near:], P)]), len(first))
    by_point = np.argsort(key_j[first], kind="stable")
    rows = first[by_point]
    return key_t[rows], ext_k[rows], wk_ext[by_point], np.bincount(key_j[first], minlength=P)


def _first_use_groups(*keys):
    """Group the rows whose keys are all equal.

    Returns the first row of each group, groups in order of first
    appearance, and each row's group number.  The sort is stable, so
    summing per group with `np.bincount` adds each group's rows in row
    order and plans stay byte-deterministic.
    """
    order = np.lexsort(keys)
    k = np.column_stack(keys)[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = np.any(k[1:] != k[:-1], axis=1)
    first = order[head]
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(first))
    group = np.empty(len(order), dtype=np.int64)
    group[order] = rank[np.cumsum(head) - 1]
    return first[by_first], group
