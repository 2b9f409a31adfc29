"""Golden digests of whole quadrature plans.

Each case builds a plan and hashes every array of the `EvalPlan` (dtype,
shape and bytes) together with `sums.field(rho)`, the field the plan hands
back.  The digests were recorded from the row build at commit 5ea8f68,
before far nodes (those past every point's box diameter) stopped going
through `linear_form` and the exterior-row sort; they pin that the split
changes no byte of any plan.  The cases cover the default exponent in 1-d
and 2-d, every exterior rule (a callable one has no far radii), mirrored
views whose reflections leave the box, and constant exponents, where near
and far exterior nodes share a merge key.

The last four cases were recorded at commit 26e92a2, before near-node rows
came from per-axis stencil tables instead of `linear_form` on materialised
node positions: cubic stencils (16-entry rows in 2-d) in 1-d and 2-d, a
callable exterior rule in 2-d, and seeded points off the lattice, no two
sharing a coordinate, so every point has its own table rows.

`1d_view_0` and `2d_view_0` (the second on the y axis, with cubic stencils)
were recorded at commit 13e75d2, before a view's near rows came from its
base grid's tables at the mirrored points and offsets, T(x) + r R d, in
place of stencils at the mirrored positions T(x + r d).  At lambda = 0 on an
axis plane the reflection is an exact negation and the two agree bit for
bit; the four lambda = +-0.5 view digests were re-recorded there, since the
two are one rounding apart elsewhere (only `rval`, `csum`, `rho` and the
field changed, the field by at most 1.1e-11 relative).
"""

import hashlib

import numpy as np
import pytest

import fracvexp as fx
from fracvexp.ball_solver import bump_profile, interior_mask
from fracvexp.quadrature import build_plan

ARRAYS = ("ptr", "rptr", "rcol", "rval", "csum", "wk", "pm2", "level_tag", "cidx", "ccoef",
          "rho", "ext_values")


def _grid(n, dim, rule="zero_outside_ball", shift=0.0, hint=2):
    u = fx.SampledFunction.from_function(bump_profile(0.5, 0.5), 1.5, n, dim,
                                         smoothness_hint=hint)
    if rule == "zero_outside_ball":
        return u
    return fx.SampledFunction(u.values + shift, u.shape, u.extent, exterior_rule=rule,
                              smoothness_hint=hint)


def _wave(p):
    return 0.05 * np.cos(3.0 * p[:, 0]) * np.cos(2.0 * p[:, -1])


def _off_lattice(count, seed):
    """`count` seeded points with |x| < 0.9, no two sharing a coordinate."""
    rng = np.random.default_rng(seed)
    r, th = 0.9 * np.sqrt(rng.random(count)), 2.0 * np.pi * rng.random(count)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def _ball(u):
    return u.nodes()[interior_mask(u)]


def _case(name):
    ii1 = fx.make_spec("example_ii", dimension=1, order=0.5, m=0.5)
    ii2 = fx.make_spec("example_ii", dimension=2, order=0.5, m=0.5)
    u1, u15 = _grid(101, 1), _grid(15, 2)
    ball1, ball15 = _ball(u1), _ball(u15)
    box1 = u1.nodes()[np.abs(u1.nodes()[:, 0]) < 1.4]
    cases = {
        "1d_n101": lambda: (ii1, u1, ball1),
        "2d_n15": lambda: (ii2, u15, ball15),
        "2d_n41_subset": lambda: (ii2, _grid(41, 2), _ball(_grid(41, 2))[::4]),
        "1d_constant_0.3": lambda: (ii1, _grid(101, 1, "constant:0.3", 0.3), box1),
        "1d_constant_0.2": lambda: (ii1, _grid(101, 1, "constant:0.2", 0.2), box1),
        "1d_zero_outside_box": lambda: (ii1, _grid(101, 1, "zero_outside_box"), box1),
        "1d_callable": lambda: (ii1, _grid(101, 1, lambda p: 0.05 * np.cos(3.0 * p[:, 0])),
                                box1),
        "2d_constant_0.2": lambda: (ii2, _grid(15, 2, "constant:0.2", 0.2), ball15),
        "1d_view_-0.5": lambda: (ii1, fx.ReflectedFunction(u1, fx.axis_plane(1, -0.5)), box1),
        "1d_view_+0.5": lambda: (ii1, fx.ReflectedFunction(
            _grid(101, 1, "zero_outside_box"), fx.axis_plane(1, 0.5)), box1),
        "2d_view_-0.5": lambda: (ii2, fx.ReflectedFunction(u15, fx.axis_plane(2, -0.5)), ball15),
        "2d_view_+0.5": lambda: (ii2, fx.ReflectedFunction(
            _grid(15, 2, "constant:0.2", 0.2), fx.axis_plane(2, 0.5)), ball15),
        "1d_view_0": lambda: (ii1, fx.ReflectedFunction(
            _grid(101, 1, "zero_outside_box"), fx.axis_plane(1, 0.0)), box1),
        "2d_view_0": lambda: (ii2, fx.ReflectedFunction(
            _grid(15, 2, hint=3), fx.axis_plane(2, 0.0, axis=1)), ball15),
        "1d_constant_p2": lambda: (fx.make_spec("constant", 1, 0.3, 0.5, value=2.0), u1, ball1),
        "1d_constant_p2.5": lambda: (fx.make_spec("constant", 1, 0.3, 0.5, value=2.5),
                                     _grid(101, 1, "constant:0.2", 0.2), box1),
        "2d_constant_p2.5": lambda: (fx.make_spec("constant", 2, 0.5, 0.5, value=2.5),
                                     _grid(15, 2, "zero_outside_box"), ball15),
        "1d_example_i": lambda: (fx.make_spec("example_i", 1, 0.5, 0.5), u1, ball1),
        "1d_table": lambda: (fx.make_spec("table", 1, 0.3, 0.5,
                                          table=((0.0, 1.0, 10.0), (2.5, 2.8, 3.0))), u1, ball1),
        "2d_n15_cubic": lambda: (ii2, _grid(15, 2, hint=3), ball15),
        "1d_n101_cubic": lambda: (ii1, _grid(101, 1, hint=3), ball1),
        "2d_callable": lambda: (ii2, _grid(15, 2, _wave), ball15),
        "2d_off_lattice": lambda: (ii2, u15, _off_lattice(24, 7)),
    }
    return cases[name]()


def plan_digest(spec, u, pts) -> str:
    plan = build_plan(spec, u, pts, fx.QuadratureConfig())
    h = hashlib.sha256()
    for a in [getattr(plan, name) for name in ARRAYS] + [plan.sums.field(plan.rho)]:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


GOLDEN = {
    "1d_n101": "f40c42c8a1731deca1aa6b1f28129f5e45265e96b7dea65b1b6552ce798fbd48",
    "2d_n15": "0c20e22464026b3ea6a63bdcf67cee8917ad366946026e326787235ba586ff24",
    "2d_n41_subset": "2f647f1487f6186aa19e312fa620fca61411a99b00db81ac020bedafcf51de29",
    "1d_constant_0.3": "833dfbd93e289eac9656bffb4c18837d9e6fad5d0060bcb5553ca9ed9099cc6e",
    "1d_constant_0.2": "231f65515ac3992ac92b36fce62d7ba57dd866987b8b2d742fc80639f4a61e4e",
    "1d_zero_outside_box": "3b581ae777adbae87d49de601293d21adb5244ac880467bc324b0c553e91bb8d",
    "1d_callable": "85262d253a56f347a9f6803cac6de7524d4780547f7f49b75a7f0192a94c574c",
    "2d_constant_0.2": "5ddf0cc97a70bbf3685ae9cac445ef6adcd50b004241d2a031c0755f7ddf186a",
    "1d_view_-0.5": "fe0073216dd1d10e307c4a31b11ca72b5f9f676a8c8ac3ce7150a23b20ea20db",
    "1d_view_+0.5": "373c92b006bf75a8bb1f9efd716f9917ab0dcf5da120d571387f40a6b853ac7e",
    "2d_view_-0.5": "05959759c94daf633ca83853331510b46ee3777a1ddbd1ed7036660f8e3af858",
    "2d_view_+0.5": "60c59161c8b7aa1fe4030e08b4ee4b1ebe4ad06cc6c1b3cc8668929b7959e03f",
    "1d_view_0": "d59b90ac273257ccd3794e9ce1c49258daa4daab7298d5796cca241baefa81b1",
    "2d_view_0": "aedb202254aac2e20d974997c262b227542a82c7d5c6b9caa5754cf8ef505761",
    "1d_constant_p2": "29d37c064ffd91a53edb3b0cbe8faeed7efda758d389a3dfa6c18ffe414c200b",
    "1d_constant_p2.5": "40212d0f1e28aae8cbc4b3427cff67bff02f8aec33f0ef8e9a6f8a1ebb3fff3d",
    "2d_constant_p2.5": "cda196ec0ce2f2da09ded10c7a5f47155cdd878d83af1dc3b31dbb8df55e24b4",
    "1d_example_i": "efb8db9c4b71310023d209985deb940352e799f17b63d5156e38846c21a712ed",
    "1d_table": "f16dbfd2b761225cf45a6e8af6a36a2f5d156a348cff4b0b91924e4ee5a896be",
    "2d_n15_cubic": "f6261541439f1aa52338ddc440563046580a58d1a5c6e35a6d3463b88424918c",
    "1d_n101_cubic": "20bfd11455b08a9fc382d1ca1850893e831d01107bbd2103205a0d643b025c1d",
    "2d_callable": "d2a1c29a44826ba19f64fdbcfe97d238437af241344239675dfcc0e9c1dbdb41",
    "2d_off_lattice": "50d89162fb4350cf16e829f03a98c129b340aec7f1d3f82564b92913f3034389",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_plan_bytes_are_pinned(name):
    assert plan_digest(*_case(name)) == GOLDEN[name], name
