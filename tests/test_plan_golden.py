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
ROWS = ("ptr", "rptr", "rcol", "rval", "wk", "pm2", "cidx", "ccoef", "ext_values")


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
    "1d_n101": ("3501f6869cf25b1f686a6ab562e694b104c0600baa00124d3b2aa2bc11823a9e",
                "9ce5b5b1bbaba45c1dd5d124677f5e8663fdb150a57f3ec1d3cf7eadc17162f9"),
    "2d_n15": ("1cd9bd0cd6278689b3714727ab8dd62ed17e66dedd7845a13698b4598a061a25",
               "4914c5cfddecdcf05c67cd1b14f188459b895179be91bdc07d0178aff09dcc0b"),
    "2d_n41_subset": ("ade47d100ed3d1fbb8b23cf1f40141360b6d0faf1cb56b48d537e7109a7a62df",
                      "506a826c9208df15072e6275b993ae988d09be537a74ef75ff1c71cc5ceff1ce"),
    "1d_constant_0.3": ("1fa12ccc1318bcdc243e59d7a4b506d4e7d4e7d5df454df6abdeffeaca8810a6",
                        "85ee1ca51ca1ab3f964ec8aa82e93dc2ebf53906333290b90762575dd1df5708"),
    "1d_constant_0.2": ("ee324bfad2a0965c405f53e5b0c9150c2b6fce70d29bcd1ae3f7b9892a51817a",
                        "b0c06c636f39bbfff506439e629d5735d251c4bb278a10787c0fba5cf65237ed"),
    "1d_zero_outside_box": ("2a212a4aabd9adb98884897c4cbf286a537a91cf14bb493a03922160713c674b",
                            "46b46d2352ecd3a932038e6adc2a6fa443a1ee3013cf2a10f4de05ec28c69cd9"),
    "1d_callable": ("10f78c9bc0133c0f047f6632458b6fc12d54ae30bd00e560c4d7bc90fcf9d12c",
                    "8b1480b805f1de75681b8d8fa9d6bd2a395061bf6013463909b0f358ce22dcec"),
    "2d_constant_0.2": ("6d8d1b26d8199811fa97591dfa98573e916fb03644f668c31aa0329e69aafaac",
                        "b77742e701aa58f1da9a100fe92712c0efcd46bc76a683e844af16515a5b634c"),
    "1d_view_-0.5": ("e5f5594435aaba0e3b8b67cfef595cb4b6a34ebb4071c3b9c15b7d785390fa34",
                     "18438f93d654202844ccdc8fe385f4864409870f2da79e21c4a41c8ec67caadf"),
    "1d_view_+0.5": ("dd08ed9697921e0005a4578ddf6cd784fe338f3b768ac70940362d6ce486a282",
                     "893b6cd90ddde2503dc114c8f7e7772df7590d8ea58b600689f9f84331cbe32f"),
    "2d_view_-0.5": ("46819fd46bb0a50878f351098867a93776741b724245258cd700337abf8da5c7",
                     "135767084359b11c49e7e91f07951eb8044a478ebc7bba9365be192669a4f923"),
    "2d_view_+0.5": ("e3367daba505f6c2e32ad0fec10b95a55d2f5d2a95970b12b25279b0e036da99",
                     "e042f1276ed76dd40e646dd1900d08b13687f8284bfa15433787274269e7f5aa"),
    "1d_view_0": ("4660d325d82ddce7312f843f90748aec836c092da3e7daeae884c77ff3363fef",
                  "d02e3d7309bc1d549e87ca04d0c8ff152f99ad55952942dab64b385a514ecdc4"),
    "2d_view_0": ("72cf1d0abf45a240ac69b851793a3ffd7e4a05c98fb94dd6b4ee9eeca2d18fde",
                  "3f539e61c4ba30aff74e4c290c9d17b6920f2b846162e5d07c5c58027cc6332f"),
    "1d_constant_p2": ("4b7e397ce267b6130e8c972587dedb51f0ace686baa01b343cc2f0e99a810048",
                       "c0c0da68c3eae4727cbf99e8503cd7e41e43ae30fb63963004eb8cf5f9a3f221"),
    "1d_constant_p2.5": ("844d91aee159afd8415c3cf96b92480c1176424a383a56bddac1525d020037cc",
                         "725f3d0b0e372cf954fbbc7d2e714396f029b1349f44728b2f8d808088c6cde8"),
    "2d_constant_p2.5": ("539c87423dee67f8ccab3f6df9f4744cb4853e14b06fc821912134b93607a524",
                         "b6945f7254c645aa7470723c9c017a0bc0ea9fefe45f21f82906e0e8ee2d6177"),
    "1d_example_i": ("72d45b2addd6d723ba63a9c2493b9174a6b0657a4713ca0ce78aba4f4f05c187",
                     "7295c642d2e58db0244f8bb80f3f509ce2fdc215aec8e5ccdc09450ea3d85d9e"),
    "1d_table": ("c1a50f3748d4a888b4fc0a7c1e0228d8088143ee8fcf97a2e03cfce7e7890cd3",
                 "56feac1bb60f25e6c013fcb251fe1b0f634b523712dc1ca551d85595a13bcfda"),
    "2d_n15_cubic": ("7d3d7da4b1b4ac9c966e4a0643c176aa11df6c9e54a96698147bf778e488c29e",
                     "41813250a1002ba0e570c42bb0a6cbaf642e09055706a6dd9c3a78f17b6d4cca"),
    "1d_n101_cubic": ("756550b2414f5b2125f8c85722fc35f7fb5500de6625c632272bc4dfbe09dec0",
                      "a1392ee7deefcdd9e685cf614c28b62adf589adbe2fe58b5a2d5a519e566f50b"),
    "2d_callable": ("5ed7ca5799e569c0a0fcbf02405bf546196f806b0a80415ef2a67053432e2845",
                    "732646b2ed8fa3caad92a07a2d7cee596d9c8e8f266eab8d3e59d0ec0d6e5c1d"),
    "2d_off_lattice": ("90894bba3ca8df738fa48aff9c7dd06786a201a497856e70ce0cb09b7bda90fc",
                       "ce5f127bc4d0da6d503e49d50de70e45ea0e68aa4e21b4955fd62cb24426c4ae"),
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
