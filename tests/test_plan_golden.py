"""Golden digests of whole quadrature plans.

Each case builds a plan and pins two digests of its arrays (dtype, shape
and bytes): the rows, which do not read the values; and the values, the
ratio rho = `_frozen_ratio(plan.sums)` and `sums.field(rho)`, the field of
the pass the plan hands back.  (The plan stored rho until commit 2e2cc0f;
the digests are of the same arrays.)
A change to the kernel's rounding then re-pins the values alone and leaves
the row pin standing.

The first digests, over both parts at once, were recorded at commit 5ea8f68,
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
two are one rounding apart elsewhere (only `rval`, the row coefficient
sums the plan then stored, `rho` and the field changed, the field by at
most 1.1e-11 relative).

The rows and values were split at commit c94006e, where both digests of
every case were recorded.  The plan then still stored each row's
coefficient sum, which the row digest leaves out.  Once a row's difference
became its center minus the interpolant, (c - m) - (R (v - m))_row, every
row digest held and every value digest was re-recorded: the field moved by
at most 7.3e-13 of its largest magnitude (1.1e-11 at one point, relative to
its own value), and `rho` by at most 2.3e-8, except at 22 points of 8 cases
whose two innermost level sums are round-off (below 1e-18 in magnitude: u is
constant around the point), so that their ratio is round-off too.
"""

import hashlib

import numpy as np
import pytest

import fracvexp as fx
from fracvexp.ball_solver import bump_profile, interior_mask
from fracvexp.quadrature import _frozen_ratio, build_plan

#: the row arrays, which do not read the values
ROWS = ("ptr", "rptr", "rcol", "rval", "wk", "pm2", "level_tag", "cidx", "ccoef", "ext_values")


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


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def plan_digests(spec, u, pts) -> tuple[str, str]:
    """(rows, values): the digest of the row arrays, and of `rho` and the field."""
    plan = build_plan(spec, u, pts, fx.QuadratureConfig())
    rho = _frozen_ratio(plan.sums)
    return (_digest([getattr(plan, name) for name in ROWS]),
            _digest([rho, plan.sums.field(rho)]))


#: name -> (rows digest, values digest)
GOLDEN = {
    "1d_n101": ("00f378ff067c3c5ffba95e5e81aa40effbff61436c6522273deccb8a8d1d0d85",
                "a724f9360c87e4b146513ce2cbfc6dafaa11967701fdf7057fea653ce64b9a9a"),
    "2d_n15": ("68595def63d10459045f60960a769cbfd9314db3a27bbbc92cc273ca752f51f4",
               "af451840d2e36a278e6895b9013f70e6a8a9d1f320df262ec64613d0d3e2356c"),
    "2d_n41_subset": ("cd38f3c7da460ec77870a843bd9a5b063fd77759446a75fd72c92b7ca70c5402",
                      "f99b3b039cbc92022c7bd556e872f562620906469b2dd2880c71a112da278bb9"),
    "1d_constant_0.3": ("d0f7f3799b2083b18fb5ea36c6acfb74d0b74ce6c61c6467e66b22d1eb67202c",
                        "7d663d63ecb284edace5f3c2e23b8b67ce473831cf8a73c6bd6c9b26fc3ad0f1"),
    "1d_constant_0.2": ("4ab6bf670d2ceb5dfdc158e845b9c9f1e1783a6458a134a59c64bbd312a27e50",
                        "e9847fad0001ab3459668d460dac06878cbf7e6990485ba9054d71bfc727d8b1"),
    "1d_zero_outside_box": ("1cc86095246a02beaf26a3982b31246fe19cfa79f03291c29961aece4c839518",
                            "5533052de6d876b417ad1349bd4be2dafd8a7893efd127831a01c3d0c4986c75"),
    "1d_callable": ("e9ae9fbd34bfe8549cf2448763919579054d741ebdc0206e3114835133724ff3",
                    "0032890d71276b7c839491f8723831b0b384a8aec43d45aeef27b7ef752b83ae"),
    "2d_constant_0.2": ("af81513ee8861b286a7b11f23b9adb05b21612dd3d8684801c0bf7e9143c2776",
                        "691089b9839b0c8368bf93cf4ee0dbf5a254478cc95ece4c49416f77248d988a"),
    "1d_view_-0.5": ("c83b1907924dfb91ae26d3345354f15da4c057bf3ecdaf82a34701428ad89f75",
                     "5689f80e384c6dad7bcff14af6d7c6ec1b0c82d526155aa5efe83d4c6729ef6e"),
    "1d_view_+0.5": ("def35a787d7c0e2e919de37e7bd41ea9f3b11be499631a044bd88fdd7b3c6c65",
                     "29b54678182c4796541d967142dbd54f85bbebe4966e5562696680b9dec82712"),
    "2d_view_-0.5": ("37c20684fe4f72ec43a17217cd7d88d7cbd9e030ab755b175be8245a7ceeb479",
                     "c8bc3eae6aab909f127749e49b11be8b12ead2b6062acfc15eaeb7defe81075e"),
    "2d_view_+0.5": ("08631adc054c6e96ff4c3901bf5c08541a5fc91499ff39ad15e84e1fee2a8e88",
                     "0989b5b549e81e0c5897aa91eb9a8530cc72be461a0ae65cf720ef739b325f3a"),
    "1d_view_0": ("c77b75bf7f73b0af4219ab4ac91a42320a445056369b0e5e49e57584863f93d4",
                  "6a6b1ef4d8fceb012a6569ebfeefbcbc445002dd80778a26010c2c0d02febbee"),
    "2d_view_0": ("d42d65b5628e80113197b9f122f45e268d8e893b9074b03518d1ca906f1b75fd",
                  "b506c6051a873145bb84685e2f078fb6dc18654d627c501fcdf620f3f53c6222"),
    "1d_constant_p2": ("0b605bb4c6579eb7f063c92a3fd8cecf6d9da42240047e6cee7c7a44c081d495",
                       "e2cc8637688cc9074ebbadf79fa936d679d96b5703d26fbdbec0475f0a1d51d7"),
    "1d_constant_p2.5": ("8a81f4f5b8d1b509f04bf7218cfdecdd72ca41996d78b432ebc2ebfa9c850965",
                         "dae39cd4cf12509b81c28795b6b370e4e48fd7e78e1dcead79c169ea532fc43a"),
    "2d_constant_p2.5": ("3fbb663e2cc5c0f5eceb428e5a7686f89f0d95f815c8df28b7a162a3b2ecebb6",
                         "d7258c7cc526ced69f15467271529793fe43f1eaccc353d2424319bb799e8947"),
    "1d_example_i": ("22f68eda26d7ad8716c47bbe8bfc4f868a2dc5d194a5d966e1b40069c8c75dc4",
                     "47e6b8c514e7346012d6af622268edbd30515cc0157845f4556320c8e9f9cbc0"),
    "1d_table": ("0e4ad1c646a857925307b7f7640f8c7b5ce0365c97f0cd625e931675442e78db",
                 "7a3e82d539de0d8b6ad5ec16b2a88d4cfe833a8811e13dcc61d846e5c66a362c"),
    "2d_n15_cubic": ("0c9dc19f029427a1c0596e03972d9c832b0c4e051e71c2c6a0e29577aa161178",
                     "d2ee049a8b832f1710bba01c235275e52ddef99eebc1136a8fc6cd1fddbdccc1"),
    "1d_n101_cubic": ("bb2a503a5625baa24288a6f449406f00d0d297d156fe977d70a828f0ac94222f",
                      "e21eedcf3b763d86919b02feddf6a00c2d873a1191c424622263f7b069398054"),
    "2d_callable": ("4b7ee28fe3ea8f2ce6e9f4c5e5d14dc85f08c3328ebb580a0b7d317355c081a4",
                    "2ff2093f24c0161a57b1c5cf30875fc861584681890cb56a47b54ba4a9aa7ad1"),
    "2d_off_lattice": ("e253569bd26e9dfc08d8e1747c5d99a4b683ac1c46cdb794d76f16c132cff4dc",
                       "45942838f3be32f3bca66a9453a8269e5a59542c5cc9215f4bea21479d5be254"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_plan_bytes_are_pinned(name):
    rows, values = plan_digests(*_case(name))
    assert rows == GOLDEN[name][0], (name, "rows")
    assert values == GOLDEN[name][1], (name, "values")
