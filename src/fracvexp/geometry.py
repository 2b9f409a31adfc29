"""Reflecting hyperplanes: direction, offset, reflection map, half-space tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError


@dataclass(frozen=True)
class PlaneGeometry:
    """Hyperplane {x : <x, e> = lambda} with unit normal e.

    The first basis vector with offset lambda reproduces the classical
    x_1 = lambda setup; any unit direction is allowed.
    """

    direction: tuple
    offset: float

    def __post_init__(self):
        e = np.asarray(self.direction, dtype=float)
        if not abs(np.linalg.norm(e) - 1.0) <= 1e-14:  # NaN fails too
            raise PreconditionError(f"direction must be a unit vector, |e| = {np.linalg.norm(e)!r}")
        if not np.isfinite(self.offset):
            raise PreconditionError(f"offset must be finite, got {self.offset!r}")
        object.__setattr__(self, "direction", tuple(float(v) for v in e))

    @property
    def e(self) -> np.ndarray:
        return np.asarray(self.direction, dtype=float)

    def coord(self, x) -> np.ndarray:
        """Signed coordinate <x, e> of points x, shape (..., dim) -> (...)."""
        c = inner(x, self.e)
        return c if c.ndim else float(c)

    def reflect(self, x):
        """Mirror image across the plane (see `reflect_points`)."""
        return reflect_points(x, self.e, self.offset)

    def in_halfspace(self, x, strict: bool = True):
        """Membership in H_lambda = {<x,e> < lambda} (closed when strict=False)."""
        c = self.coord(x)
        return c < self.offset if strict else c <= self.offset


def inner(x, e) -> np.ndarray:
    """<x, e> for points x, shape (..., dim) -> (...), summed coordinate by
    coordinate.  Unlike `x @ e`, whose BLAS rounding depends on how many
    rows share the call, a point gets the same bits alone or in a batch.
    Points whose last axis is not len(e) long are a precondition error."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != len(e):
        raise PreconditionError(
            f"points of shape {x.shape} do not match a plane in {len(e)} dimensions")
    c = x[..., 0] * e[0]
    for k in range(1, x.shape[-1]):
        c = c + x[..., k] * e[k]
    return c


def reflect_points(x, e: np.ndarray, offset):
    """Mirror image across {<x,e> = lambda}: x - 2(<x,e> - lambda) e, with
    `offset` one lambda for all points or one per row of x."""
    x = np.asarray(x, dtype=float)
    c = np.atleast_1d(inner(x, e)) - offset
    out = np.atleast_2d(x) - 2.0 * c[:, None] * e[None, :]
    return out if x.ndim > 1 else out[0]


def axis_plane(dim: int, offset: float, axis: int = 0) -> PlaneGeometry:
    e = np.zeros(dim)
    e[axis] = 1.0
    return PlaneGeometry(tuple(e), float(offset))
