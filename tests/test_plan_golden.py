"""Golden digests of whole quadrature plans.

Each case builds a plan and pins two digests of its arrays (dtype, shape
and bytes): the rows, which do not read the values; and the values,
`plan.sums`, the operator values of the pass the plan hands back.
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
sums the plan then stored and the values changed, the values by at most
1.1e-11 relative).

The rows and values were split at commit c94006e, where both digests of
every case were recorded.  The plan then still stored each row's
coefficient sum, which the row digest leaves out.  Once a row's difference
became its center minus the interpolant, (c - m) - (R (v - m))_row, every
row digest held and every value digest was re-recorded: the values moved
by at most 7.3e-13 of their largest magnitude (1.1e-11 at one point,
relative to its own value).

Both digests of every case were re-pinned when an operator value became the
plain sum over the graded levels, with no extrapolated remainder.  That
change deleted the plan's per-row level tag, which only the remainder read,
and dropped it from the exterior merge key.  Each new digest is derived from
the plan of the parent commit edbf08c, not merely re-recorded: there, the
digest of the row arrays other than the level tag equals the new rows
digest, and the digest of `plan.sums.total` equals the new values digest, at
every case.  So no row moved and no kernel sum moved; only the remainder,
which the old values digest pinned, is gone.

When a kernel pass became one array of operator values, `plan.sums`
replaced `plan.sums.total` (the first field of a (total, centers) pair) in
the values digest; its dtype, shape and bytes are those of the old field,
so every digest held.

Every rows digest was re-recorded on top of commit 6ce73e5, when each
point's center stencil became row nnz + i of `R` in place of the dense
(points, S) arrays `cidx` and `ccoef`.  Each new rows digest is derived from
the parent's plan, not merely re-recorded: there, `rptr` extended by each
center's nonzero count, and each center's nonzero coefficients and their
columns (an exterior center's one 1.0 on its slot column n + slot) appended
to `rval` and `rcol` in stencil order, give the new digest at every case.
Only the values digests of the cases whose centers lie off the nodes moved,
`1d_view_+-0.5`, `2d_view_+-0.5` and `2d_off_lattice`: by at most 3.9e-13
of their largest magnitude (2.5e-12 at one point, relative to its own
value).  Every other values digest and every `JACOBIAN_GOLDEN` digest held.

`JACOBIAN_GOLDEN` pins `_backend.jacobian` on the solver's plan over the
manufactured problem, at u* and at `reproduce-all`'s perturbed guess, in
1-d at n=101 and in 2-d at n=15.  The finite-difference tests hold the
Jacobian only to a tolerance; these digests hold it to the bit.
"""

import hashlib

import numpy as np
import pytest

import fracvexp as fx
from fracvexp._backend import jacobian
from fracvexp.ball_solver import bump_profile, interior_mask
from fracvexp.cli import _manufactured_problem
from fracvexp.config import RunConfig
from fracvexp.quadrature import build_plan

#: the row arrays, which do not read the values
ROWS = ("ptr", "rptr", "rcol", "rval", "wk", "pm2", "ext_values")


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
    """(rows, values): the digest of the row arrays, and of the operator values."""
    plan = build_plan(spec, u, pts, fx.QuadratureConfig())
    return (_digest([getattr(plan, name) for name in ROWS]), _digest([plan.sums]))


#: name -> (rows digest, values digest)
GOLDEN = {
    "1d_n101": ("085a4a6deadf1740c42a9e9bad01ad5a8a8435158737ba835aed409decb08b65",
                "9ce5b5b1bbaba45c1dd5d124677f5e8663fdb150a57f3ec1d3cf7eadc17162f9"),
    "2d_n15": ("a03256767675eb2f695344a6a051d80f381a6141134e8c19edc4a1420dbef879",
               "4914c5cfddecdcf05c67cd1b14f188459b895179be91bdc07d0178aff09dcc0b"),
    "2d_n41_subset": ("50955a58c265e9636ba2afd8c5bd5c35f452ccd343619be4341dc2fef9ee5aeb",
                      "506a826c9208df15072e6275b993ae988d09be537a74ef75ff1c71cc5ceff1ce"),
    "1d_constant_0.3": ("e60f15cd6b4d4bd115d28bc828f2b7f1cbd0f4d73439a0e2dcb0523a36ae7b73",
                        "85ee1ca51ca1ab3f964ec8aa82e93dc2ebf53906333290b90762575dd1df5708"),
    "1d_constant_0.2": ("6ed751f2a9b057c6849c7d31f5beb5f5fbab179dead4520d3ad259d6ee7b07ff",
                        "b0c06c636f39bbfff506439e629d5735d251c4bb278a10787c0fba5cf65237ed"),
    "1d_zero_outside_box": ("22da884be010a943e6007fe5acbc00503443a772ad3b28aa9eaeddfaac55cedd",
                            "46b46d2352ecd3a932038e6adc2a6fa443a1ee3013cf2a10f4de05ec28c69cd9"),
    "1d_callable": ("0030bc213b9f9707a6f504e6e7acd385b1f7dc1d62e7bd731bccc5f6e4702bf6",
                    "8b1480b805f1de75681b8d8fa9d6bd2a395061bf6013463909b0f358ce22dcec"),
    "2d_constant_0.2": ("ab6f9f5ea1e68bdc58306c4ea82281a441c4bb3c42c3cb25ea0855453a6469f9",
                        "b77742e701aa58f1da9a100fe92712c0efcd46bc76a683e844af16515a5b634c"),
    "1d_view_-0.5": ("5eb5a5488ae5e64e68d2542cce555ad238d31f86b797d61c22871531cf090a55",
                     "7ae50dbb6f94faf2fcdb4f5cbe5830fa70e28ba255e8b3d265f402073e87f89e"),
    "1d_view_+0.5": ("c3fe0cf8555230a87115a0c4d664ec20f81313a75db885c0a011a99348defda0",
                     "73d9477afe1fd9acea26f19dfed0a71b1ed0d5f61147e64fbc0e4dcb5f88276e"),
    "2d_view_-0.5": ("a1d5fd088a1584d85aec7e74f2ced1bdefc1af62297cf71a470c5c25f7438e1e",
                     "5c9bd4d52b65c31dc7a1d427691f342cf74ba1946bdfb59436673ac5857da7fb"),
    "2d_view_+0.5": ("2db1440958c1aa709d2620da6eda7dd2c9972552bd6b8241335f41693caffa9c",
                     "344eef77b3b15d168addacaf3b41c92ba2c9541987f8bc78dd33cb9bdb441dd3"),
    "1d_view_0": ("105fbdf8cfce5af69d75cbf33f0cc0a5cabc76cd8991299b40f6bdc488ca05c9",
                  "d02e3d7309bc1d549e87ca04d0c8ff152f99ad55952942dab64b385a514ecdc4"),
    "2d_view_0": ("74362d7c5e8f0d42e579d385573d560ade1edb57c1d921b3216769f54d8400e2",
                  "3f539e61c4ba30aff74e4c290c9d17b6920f2b846162e5d07c5c58027cc6332f"),
    "1d_constant_p2": ("0cc53d3351105438b847fe3c23539265f4245e0e010f86fa697fbbcc9c5809a7",
                       "c0c0da68c3eae4727cbf99e8503cd7e41e43ae30fb63963004eb8cf5f9a3f221"),
    "1d_constant_p2.5": ("76f93134644ccb9cd2d554194d92e4e06e341f75678edccc8f0f86845853af71",
                         "725f3d0b0e372cf954fbbc7d2e714396f029b1349f44728b2f8d808088c6cde8"),
    "2d_constant_p2.5": ("013ce390419c00730a680485632dde000164aa62e61d68e753157d38259248e8",
                         "b6945f7254c645aa7470723c9c017a0bc0ea9fefe45f21f82906e0e8ee2d6177"),
    "1d_example_i": ("3317a3c11febffb9676147199afc2a95d45d1c6aa57ac9942734cc3a380636a1",
                     "7295c642d2e58db0244f8bb80f3f509ce2fdc215aec8e5ccdc09450ea3d85d9e"),
    "1d_table": ("befc01cd3dbe4fc221f5cb1e5112e7aece5fb63dbb03b165440ebcae95f05a8f",
                 "56feac1bb60f25e6c013fcb251fe1b0f634b523712dc1ca551d85595a13bcfda"),
    "2d_n15_cubic": ("0ed683ca48a05c71a158fc7e2460864fd4364c867218cb14de897481c414e09d",
                     "41813250a1002ba0e570c42bb0a6cbaf642e09055706a6dd9c3a78f17b6d4cca"),
    "1d_n101_cubic": ("27d2c0cccbc39721c229105529d35c8e316efc9e6c4bba225ee8db3d3e9c3f1e",
                      "a1392ee7deefcdd9e685cf614c28b62adf589adbe2fe58b5a2d5a519e566f50b"),
    "2d_callable": ("9d973a1c3456d915ef01f6d095372a35275929955f3f278ff850cd3ecb088f56",
                    "732646b2ed8fa3caad92a07a2d7cee596d9c8e8f266eab8d3e59d0ec0d6e5c1d"),
    "2d_off_lattice": ("e302541314ca2e2ac3d5ad473eed986c46d66be15bd6cfc838c3a29179ce42e3",
                       "1fad68119cd9fc6e54ac7818d89dc29f93727d53404e43e068ce5d522e94271c"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_plan_bytes_are_pinned(name):
    rows, values = plan_digests(*_case(name))
    assert rows == GOLDEN[name][0], (name, "rows")
    assert values == GOLDEN[name][1], (name, "values")


def jacobian_digest(dim, n, at):
    """The digest of `jacobian` on the solver's plan over the manufactured
    problem: at u* or at `reproduce-all`'s perturbed guess."""
    cfg = RunConfig.load()
    cfg.override("exponent", "dimension", dim)
    spec = cfg.exponent_spec()
    u_star, _, guess = _manufactured_problem(cfg, spec, n)
    plan = build_plan(spec, guess, guess.nodes()[interior_mask(guess)], cfg.quadrature())
    return _digest([jacobian(plan, {"u_star": u_star, "guess": guess}[at].values)])


#: (dim, n, values) -> digest of the Jacobian, recorded at commit c347f70 before
#: the kernel pass and the Jacobian formed their products in one work array
JACOBIAN_GOLDEN = {
    (1, 101, "guess"): "0dbcfad4641d558a2638c3fddd00838d9041e3e4efab79d430d74e7b54dae4d8",
    (1, 101, "u_star"): "2bd798aae68e19f94f822df6877611b1487dbf38d70167740b1b04c73e2f9da7",
    (2, 15, "guess"): "4ea4ac6e7de1a4165b584bd197323031f61c63ab6379ee7c9d3b4ce0832def34",
    (2, 15, "u_star"): "22f8ccfbc3727d6e8fb60f68de1cfdd9bcc64759a498a09173c494b58e22c79e",
}


@pytest.mark.parametrize("case", sorted(JACOBIAN_GOLDEN),
                         ids=lambda case: "{}d_n{}_{}".format(*case))
def test_jacobian_bytes_are_pinned(case):
    assert jacobian_digest(*case) == JACOBIAN_GOLDEN[case], case
