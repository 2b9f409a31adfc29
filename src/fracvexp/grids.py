"""Discrete functions on symmetric tensor grids over [-L, L]^N.

A SampledFunction carries node values, an exterior rule deciding values
off the grid (or past the unit ball), and a smoothness hint selecting the
local interpolation order used to emulate a C^{1,1} representative.
The model domain, the unit ball, is decided here: u = 0 outside it under
`ZERO_BALL`, and `interior_mask` is every reader's set of nodes with |x| < 1.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

import numpy as np

from .errors import PreconditionError
from .geometry import PlaneGeometry, reflect_points

ZERO_BALL = "zero_outside_ball"
ZERO_BOX = "zero_outside_box"
CONSTANT_PREFIX = "constant:"  # serializable constant exterior, e.g. "constant:0.3"
_RULES = (ZERO_BALL, ZERO_BOX)


@dataclass
class SampledFunction:
    """Node values on an equispaced symmetric grid plus an exterior rule.

    values : flat float64 array, C-order for 2-d grids
    shape  : (n,) or (n, n); nodes span [-extent, extent] per axis, extent
        finite and > 0 (the interpolation reads one spacing for every axis)
    exterior_rule : 'zero_outside_ball', 'zero_outside_box', or a callable
        u_ext(points) giving values outside the grid box
    smoothness_hint : 2 (quadratic stencils) or 3 (cubic stencils)
    """

    values: np.ndarray
    shape: tuple
    extent: float
    exterior_rule: Union[str, Callable] = ZERO_BALL
    smoothness_hint: int = 2

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float).ravel()
        shape = np.atleast_1d(self.shape).tolist()
        self.shape = tuple(int(n) for n in shape)
        if any(float(n) != m for n, m in zip(shape, self.shape)):  # [41.5] is not 41 nodes
            raise PreconditionError(f"grid shape must be whole node counts, got {shape}")
        if len(self.shape) not in (1, 2) or len(set(self.shape)) != 1:
            raise PreconditionError(f"grid shape must be (n,) or (n, n), got {self.shape}")
        if not 0.0 < self.extent < np.inf:  # NaN fails too
            raise PreconditionError(f"grid extent must be finite and > 0, got {self.extent!r}")
        if self.values.size != int(np.prod(self.shape)):
            raise PreconditionError("values size does not match grid shape")
        if any(n < 5 for n in self.shape):
            raise PreconditionError("grids need at least 5 nodes per axis")
        if any(n % 2 == 0 for n in self.shape):
            # symmetric pairing around interior points needs the origin on
            # the lattice, hence an odd node count per axis
            raise PreconditionError("grids need an odd node count per axis")
        if not np.all(np.isfinite(self.values)):
            raise PreconditionError("node values must be finite")
        if self.smoothness_hint not in (2, 3):
            raise PreconditionError("smoothness_hint must be 2 or 3")
        rule = self.exterior_rule
        if not (isinstance(rule, str) or callable(rule)):
            raise PreconditionError(f"exterior_rule must be a name or a callable, got {rule!r}")
        if isinstance(rule, str) and rule.startswith(CONSTANT_PREFIX):
            try:
                level = float(rule[len(CONSTANT_PREFIX):])
            except ValueError:
                level = np.nan
            if not np.isfinite(level):  # a NaN level made every operator value NaN
                raise PreconditionError(f"constant exterior rule needs a finite number: {rule!r}")
        elif isinstance(rule, str) and rule not in _RULES:
            raise PreconditionError(f"unknown exterior rule {rule!r}")
        if self.exterior_rule == ZERO_BALL and self.extent < 1.0:
            raise PreconditionError("zero_outside_ball needs the grid box to contain the unit ball")
        if self.exterior_rule == ZERO_BALL:
            off = ~interior_mask(self) & (self.values != 0.0)
            if np.any(off):
                raise PreconditionError(
                    "zero_outside_ball requires zero values at nodes with |x| >= 1 "
                    f"({int(off.sum())} offending nodes)")

    # -- geometry -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / (self.shape[0] - 1)

    def axis_nodes(self, axis: int = 0) -> np.ndarray:
        # antisymmetrized so that node_i == -node_{n-1-i} bitwise: radial
        # symmetry of sampled even functions then holds exactly
        raw = np.linspace(-self.extent, self.extent, self.shape[axis])
        return 0.5 * (raw - raw[::-1])

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (n_total, dim), C-order."""
        axes = [self.axis_nodes(a) for a in range(self.dim)]
        if self.dim == 1:
            return axes[0][:, None]
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])

    @classmethod
    def from_function(cls, fn: Callable, extent: float, n: int, dim: int = 1,
                      exterior_rule=ZERO_BALL, smoothness_hint: int = 2):
        """Sample fn on the grid; under the ball rule, values at |x| >= 1 are zeroed."""
        if n < 5:  # before np.zeros meets a negative size
            raise PreconditionError("grids need at least 5 nodes per axis")
        shape = (n,) * dim
        probe = cls(np.zeros(int(np.prod(shape))), shape, extent,
                    ZERO_BOX, smoothness_hint)
        vals = np.asarray(fn(probe.nodes()), dtype=float).ravel()
        if exterior_rule == ZERO_BALL:
            vals = np.where(interior_mask(probe), vals, 0.0)
        return cls(vals, shape, extent, exterior_rule, smoothness_hint)

    def with_values(self, values: np.ndarray) -> "SampledFunction":
        return SampledFunction(values, self.shape, self.extent,
                               self.exterior_rule, self.smoothness_hint)

    def inside_box(self, pts: np.ndarray, strict: bool = False) -> np.ndarray:
        pts = np.atleast_2d(pts)
        if strict:
            return np.all(np.abs(pts) < self.extent, axis=1)
        return np.all(self._axis_in_box(pts), axis=1)

    # -- interpolation ------------------------------------------------------
    #
    # One copy of each formula, fed either per-position arrays (`linear_form`)
    # or rows of per-axis tables (`OffsetForm`): `_axis_table` (the box test,
    # square and stencil of one axis coordinate), `_source` (box and ball
    # tests), `_tensor` (the stencil-major tensor product) and `_exterior`.

    def _axis_in_box(self, c: np.ndarray) -> np.ndarray:
        return np.abs(c) <= self.extent

    def _source(self, box, sq):
        """(in_box, interp) from each axis's box test and squared coordinate.

        A position is in the box when every axis is; under zero_outside_ball
        it is interpolated when also sqrt(sum of squares) < 1, the bits of
        `np.linalg.norm`; elsewhere in the box it reads 0.
        """
        in_box = functools.reduce(np.logical_and, box)
        if self.exterior_rule != ZERO_BALL:
            return in_box, in_box
        return in_box, in_box & (np.sqrt(functools.reduce(np.add, sq)) < 1.0)

    def _exterior(self, in_box: np.ndarray, outside: Callable) -> np.ndarray:
        """Exterior values: 0 in the box, the rule's value elsewhere.

        `outside()` gives the positions where `in_box` is False, in C order;
        only a callable rule reads them.
        """
        ext = np.zeros(in_box.shape)
        if not np.all(in_box):
            rule = self.exterior_rule
            ext[~in_box] = (np.asarray(rule(outside()), dtype=float).ravel()
                            if callable(rule) else self.exterior_value)
        return ext

    def _axis_stencil(self, coords: np.ndarray):
        """Per-axis stencil start indices and Lagrange weights at coords.

        Returns i0 shaped like coords and the weights stencil-major, shape
        (..., S, T) for coords (..., T).
        Stencils are cell-anchored, so neighboring stencils meet at a node
        they both interpolate: the piecewise interpolant is continuous
        everywhere.  (Center-anchored stencils would jump by O(h^3) across
        half-cell lines, which the principal-value pairing cannot absorb.)
        The quadratic stencil's extra node sits on the origin side, so the
        interpolant of even data is mirror-symmetric to round-off; cubic
        stencils are symmetric about the cell already.
        """
        n = self.shape[0]
        h = self.spacing
        u = (coords + self.extent) / h
        if self.smoothness_hint == 2:
            i0 = np.clip(np.floor(u + 1e-9).astype(np.int64), 1, n - 2)
            t = u - i0
            near = np.rint(t)
            t = np.where(np.abs(t - near) < 1e-9, near, t)
            # mirror-coherent bias: negative coordinates take the stencil
            # with the extra node on the right
            neg = (coords < 0.0) & (i0 < n - 2)
            shift = neg & (t != 0.0)
            i0 = np.where(shift, i0 + 1, i0)
            t = np.where(shift, t - 1.0, t)
            w = np.stack([0.5 * t * (t - 1.0),
                          (1.0 - t) * (1.0 + t),
                          0.5 * t * (t + 1.0)], axis=-2)
            return i0 - 1, w
        i0 = np.clip(np.floor(u + 1e-9).astype(np.int64), 1, n - 3)
        t = u - i0
        near = np.rint(t)
        t = np.where(np.abs(t - near) < 1e-9, near, t)
        w = np.stack([-t * (t - 1.0) * (t - 2.0) / 6.0,
                      (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
                      -t * (t + 1.0) * (t - 2.0) / 2.0,
                      t * (t + 1.0) * (t - 1.0) / 6.0], axis=-2)
        return i0 - 1, w

    def _tensor(self, i0, w):
        """Flat node indices and coefficients of the tensor-product stencils.

        i0[a] (..., T) and w[a] (..., S, T) are axis a's starts and weights;
        the result is stencil-major, (..., S^N, T), so the inner loops run
        over T.  Indices keep the dtype of i0.
        """
        s = w[0].shape[-2]
        offs = np.arange(s, dtype=i0[0].dtype)
        if self.dim == 1:
            return i0[0][..., None, :] + offs[:, None], w[0]
        ny = self.shape[1]
        idx = (i0[0] * ny + i0[1])[..., None, :] + (offs[:, None] * ny + offs).reshape(-1, 1)
        coef = w[0][..., :, None, :] * w[1][..., None, :, :]
        return idx, coef.reshape(idx.shape)

    def stencils(self, pts: np.ndarray):
        """Interpolation stencils at points inside the box.

        Returns (idx, coef) with shapes (m, S): flat node indices and
        Lagrange coefficients; points are clamped to valid stencil range.
        The tensor products are formed stencil-major by `_tensor`, the code
        that also serves the plan's near rows from `OffsetForm` tables, and
        handed back as contiguous transposes.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        idx, coef = self._tensor(*zip(*(self._axis_stencil(c) for c in pts.T)))
        return np.ascontiguousarray(idx.T), np.ascontiguousarray(coef.T)

    @property
    def exterior_value(self):
        """The one value u takes outside the grid box under a named rule
        (0 under the zero rules); None under a callable rule."""
        rule = self.exterior_rule
        if callable(rule):
            return None
        return float(rule[len(CONSTANT_PREFIX):]) if rule.startswith(CONSTANT_PREFIX) else 0.0

    def linear_form(self, pts):
        """u at `pts` as stencils into the node values or an exterior value.

        The one place that decides where u comes from at given positions: the
        interpolant inside the box (and inside the unit ball under
        zero_outside_ball), the exterior rule elsewhere.  Returns (interp, idx,
        coef, ext): the mask of interpolated points, their (interp.sum(), S)
        stencils in point order, and exterior values (0 on interpolated
        points).  A plan's near rows come from `offset_form` instead, which
        runs the same tests and products on per-axis tables (a view's are its
        base grid's, at the mirrored points and offsets); point evaluation and
        plan centers come here.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        in_box, interp = self._source([self._axis_in_box(c) for c in pts.T],
                                      [c * c for c in pts.T])
        idx, coef = self.stencils(pts[interp])
        return interp, idx, coef, self._exterior(in_box, lambda: pts[~in_box])

    def offset_form(self, pts, offsets) -> "OffsetForm":
        """`linear_form` at every position pts[j] + offsets[t], from per-axis tables.

        Position j, t has axis coordinates fl(x_a + fl(offsets[t, a])), so per
        axis everything `linear_form` reads of it is a function of the pair
        (distinct x_a, t).  Each axis gets one `_axis_table` over those pairs;
        `OffsetForm` gathers whole table rows per point and never forms the
        positions.  Distinct means distinct bits, so -0.0 and 0.0 get rows of
        their own.  Points that share no coordinate (off the lattice, or a
        view's mirror images across an oblique plane) get a table row each,
        so their tables hold every position of the run.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        offsets = np.asarray(offsets, dtype=float)
        tables = []
        for x, off in zip(pts.T, offsets.T):
            bits, inv = np.unique(np.ascontiguousarray(x).view(np.int64), return_inverse=True)
            tables.append((inv.ravel(), self._axis_table(bits.view(np.float64)[:, None] + off)))
        return OffsetForm(self, pts, offsets, tables)

    def _axis_table(self, c):
        """What `linear_form` reads of axis coordinates c (..., T).

        The box test, the square, the count of nonzero stencil weights (int8),
        the stencil start (int32) and the weights, stencil-major (..., S, T).
        A weight is 0 exactly where t snaps to a node, and above about 1e-10
        elsewhere, so a product of axis weights is 0 only where a factor is:
        a tensor stencil has the product of its axes' counts as nonzeros.
        """
        i0, w = self._axis_stencil(c)
        return (self._axis_in_box(c), c * c, np.count_nonzero(w, axis=-2).astype(np.int8),
                i0.astype(np.int32), w)

    def point_eval(self, pts) -> np.ndarray:
        """Evaluate the interpolant with the exterior rule applied pointwise."""
        interp, idx, coef, ext = self.linear_form(pts)
        ext[interp] = np.einsum("ms,ms->m", coef, self.values[idx])
        return ext

    # -- serialization ------------------------------------------------------

    def save(self, csv_path) -> None:
        """Write `<stem>.csv` (coordinates..., value) and `<stem>.json` header."""
        csv_path = Path(csv_path)
        if callable(self.exterior_rule):
            raise PreconditionError("callable exterior rules are not serializable")
        pts = self.nodes()
        cols = [pts[:, a] for a in range(self.dim)] + [self.values]
        header = ",".join(["x", "y"][: self.dim] + ["value"])
        np.savetxt(csv_path, np.column_stack(cols), delimiter=",",
                   header=header, comments="", fmt="%.17g")
        meta = {
            "dim": self.dim,
            "shape": list(self.shape),
            "extent": self.extent,
            "exterior_rule": self.exterior_rule,
            "smoothness_hint": self.smoothness_hint,
        }
        csv_path.with_suffix(".json").write_text(json.dumps(meta, sort_keys=True, indent=1))

    @classmethod
    def load(cls, csv_path) -> "SampledFunction":
        """Read what `save` wrote.  A missing file raises OSError; a malformed
        header (a smoothness hint other than 2 or 3, a `dim` other than the
        shape's length, a fractional shape, an exterior rule that is not a
        string or a constant that is not finite) or a non-numeric cell raises
        PreconditionError."""
        csv_path = Path(csv_path)
        try:
            meta = json.loads(csv_path.with_suffix(".json").read_text())
            shape, hint = tuple(meta["shape"]), meta["smoothness_hint"]
            if hint not in (2, 3):
                raise PreconditionError(
                    f"{csv_path}: smoothness_hint must be 2 or 3, got {hint!r}")
            if meta["dim"] != len(shape):
                raise PreconditionError(
                    f"{csv_path}: dim {meta['dim']!r} does not match shape {list(shape)}")
            data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
            return cls(np.atleast_2d(data)[:, -1], shape, float(meta["extent"]),
                       meta["exterior_rule"], int(hint))
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            raise PreconditionError(f"malformed sampled function {csv_path}: {exc!r}") from exc


def interior_mask(u: SampledFunction) -> np.ndarray:
    """The nodes of u strictly inside the unit ball, |x| < 1."""
    return np.linalg.norm(u.nodes(), axis=1) < 1.0


@dataclass
class OffsetForm:
    """`SampledFunction.linear_form` at pts[j] + offsets[t], block by block.

    `tables` holds per axis (inv, table): each point's table row, and the
    `_axis_table` fields (box, sq, nz, i0, w) per (distinct coordinate, offset).
    """

    grid: SampledFunction
    pts: np.ndarray
    offsets: np.ndarray
    tables: list

    def block(self, lo: int, hi: int):
        """(interp, ext, nz) at the positions of points lo..hi, each (P, T).

        `interp` and `ext` are what `linear_form` gives for the positions in
        point-major order, `nz` the nonzero coefficients of each position's
        stencil.
        """
        g = self.grid
        box, sq, nz = zip(*([f[inv[lo:hi]] for f in table[:3]] for inv, table in self.tables))
        in_box, interp = g._source(box, sq)
        return (interp,
                g._exterior(in_box, lambda: (self.pts[lo:hi, None, :] + self.offsets)[~in_box]),
                functools.reduce(np.multiply, nz))

    def stencils(self, j: int, keep: np.ndarray):
        """(idx, coef): the stencils of point j at the positions where the (T,)
        mask `keep` is set, shape (keep.sum(), S^N) as in
        `SampledFunction.stencils`; idx is int32."""
        at = np.flatnonzero(keep)
        idx, coef = self.grid._tensor(*zip(*((table[3][inv[j]].take(at),
                                              table[4][inv[j]].take(at, axis=-1))
                                             for inv, table in self.tables)))
        return np.ascontiguousarray(idx.T), np.ascontiguousarray(coef.T)

    def drop_tests(self) -> None:
        """Free the box, square and count tables, which only `block` reads."""
        self.tables = [(inv, (None,) * 3 + table[3:]) for inv, table in self.tables]


@dataclass
class ReflectedFunction:
    """View u_lambda(x) = u(reflect(x)): reflection pre-composed with the
    interpolant, never a resample onto a new grid."""

    base: SampledFunction
    plane: PlaneGeometry

    def linear_form(self, pts):
        """`SampledFunction.linear_form` of the base grid at the reflected points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.base.linear_form(self.plane.reflect(pts))

    def offset_form(self, pts, offsets) -> OffsetForm:
        """The base grid's `offset_form` at the mirrored points and offsets.

        T(x + d) = T(x) + R d with R = I - 2 e e^T, so the node x + d reads
        the base grid at fl(T(x) + fl(R d)): equal to fl(T(fl(x + d))) in
        exact arithmetic, bit for bit on an axis plane at lambda = 0 (where T
        negates one coordinate), and one rounding apart elsewhere.
        """
        return self.base.offset_form(self.plane.reflect(pts),
                                     reflect_points(offsets, self.plane.e, 0.0))

    def point_eval(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.base.point_eval(self.plane.reflect(pts))
