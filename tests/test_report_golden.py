"""Golden digests of whole `reproduce-all` runs.

Two small runs, 1-d at n=61 and 2-d at n=15, write every report; the
sha256 of each report file except `run_meta.json` (which stamps time and
host) is pinned.  The digests were recorded at commit 982afbf, before
`apply_plan` became the one kernel pass and `eval_plap_field` started
reading its plan's own pass; they pin that this changes no byte of any
report.  Those of `mp_antisym.json`, `mp_boundary.json` and `summary.json`
were re-recorded on top of commit 13e75d2 once a mirrored view's near rows
came from its base grid's stencil tables at the mirrored points and
offsets: the operator differences there moved by round-off (at most
8.6e-11 relative, the 2-d boundary margin), and no verdict or flag did.
Every file but `lemmas.json` and `validate.json` was re-recorded on top of
commit c94006e once a plan row's difference became its center minus the
interpolant, (c - m) - (R (v - m))_row, in place of the row's stored
coefficient sum times (c - m), minus (R (v - m))_row: every number moved by
round-off (at most 1.7e-11 relative to max(1, |value|), the 2-d boundary
margin again), and no verdict, flag, string or iteration count did.
The two `sweep.json` digests were re-recorded on top of commit dd7171d once
the JSON writer wrote a non-finite number as `null`: the `Infinity` tokens
(the `min_w` of planes with no half-space node; 2 in 1-d, 3 in 2-d) became
`null`, and no other byte changed.
Every file but `lemmas.json`, `validate.json` and `u.json` was re-recorded on
top of commit edbf08c once an operator value became the plain sum over the
graded levels, with no extrapolated remainder: the solution moved by at most
1.6e-5 in `u.csv` (2.5e-6 in 2-d), each solve still took 3 Newton steps and
4 kernel passes, and no verdict, flag or string moved.
`mp_boundary.json` of both runs, and `mp_antisym.json` and `summary.json` of
the 2-d run, were re-recorded on top of commit 6ce73e5 once each center
became a row of the plan's stencil matrix, read as C (v - m) by the same
sparse product as the rows: the boundary probe's ratios and margin and the
antisymmetric control's gamma moved by round-off (at most 2.8e-10 relative
to max(1, |value|), the 2-d probe margin, which Gamma/delta amplifies), and
no verdict, flag, string or iteration count did.
The configs keep the lemma suites, sweeps and solver small so the two runs
stay near a second.
"""

import hashlib

import pytest

from fracvexp.cli import run_reproduce_all
from fracvexp.config import RunConfig

RUNS = {
    "1d_n61": {"exponent.dimension": 1, "solver.nodes": 61},
    "2d_n15": {"exponent.dimension": 2, "solver.nodes": 15},
}
SMALL = {"solver.tol_res": 1e-3, "lemmas.n_mean_value": 500, "lemmas.n_kernel": 500,
         "lemmas.n_gprime": 500, "sweep.count": 21, "sweep.refine": 4,
         "sweep.directions": 2, "sweep.tol": 5e-4, "sweep.radial_tol": 1e-3}


def report_digests(name, outdir) -> dict:
    cfg = RunConfig.load()
    for key, value in {**SMALL, **RUNS[name]}.items():
        cfg.override(*key.split("."), value)
    run_reproduce_all(cfg, outdir)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.name != "run_meta.json"}


GOLDEN = {
    "1d_n61": {
        "lemmas.json": "67a5d57b7535e89491509ad99deb529b8b0bd1988e629bc4526129ab655bb326",
        "mp_antisym.json": "48db44ecb284cc8336def78502a7e7338790982e3754e04e64e1f3bbbad02c45",
        "mp_boundary.json": "f8950927b3b6944d00024744115a95995bff4ba73b926122729695c69eb1bbf4",
        "mp_strong.json": "cd47a85448a145118be793168540c434235fe32e4c6e86d4e8ff6239fbe91b00",
        "profile.csv": "2a7f97b396cef6ccae339ffd1aa4c054e3b33c8642b529aac277367c098ac948",
        "residual_history.csv": "475ff872b32f22bff99463e6ee2f7c9fe2675aeafcc8e1ee439a27b95446d6d0",
        "solve.json": "8ddf1c6ad7194d1d415674fdb1ec50ea7e6737a6ac1e2d997731d02cb5d0597b",
        "summary.json": "71985319338d470a30869c659052ce8b5766d15164af126e01190211c2f976e0",
        "sweep.csv": "9be97a45828d1eda3ae5aed01fbf38d1aade492aacfb3f50018fbec3ff7f4863",
        "sweep.json": "b02b6417abd195a304291a4e8c73ab95112af1097b7b79c39a939d1e00aaee4e",
        "u.csv": "f4da509b854a803657619b40a64cb99d2e31f079c8c88ae498895acfd082984e",
        "u.json": "bcee8cbf8210a5d16d75c8bf4b87ee2e329831a0e5013bae26d0eea7630176ae",
        "validate.json": "5a463b5d0cc37bbee034b93fa183f8334d39b2cfe2b2e29314391fdf99d02894",
    },
    "2d_n15": {
        "lemmas.json": "61d3dc30abf435264a50ce46672e56c6636d21cd7edac678d961953196213b56",
        "mp_antisym.json": "5c52f6f49e9924ae84d23155192366b08c1ea2ddb6bd440a37963e568cd345df",
        "mp_boundary.json": "c0190ff399dc7c13e668406c0ec50bc6c4a4617ee3e4a6abbec0ebf8e007f872",
        "mp_strong.json": "f77cc4a9900c1d291153fbbda1324369dcde4bb866da68e368da03a3926f302c",
        "profile.csv": "c3f62b67bffefa00847253361a31db75257854a655730e97c8ebed3cf4581709",
        "residual_history.csv": "ff88f27710b0e857b99618d715d57103f1e6d5a55f8e2992f3e76abd6deb1291",
        "solve.json": "c33d7dd2fee1d5d84541cb4b5ac7107dc448fdaaee730a13fe86bd7156161a74",
        "summary.json": "f7021af9e1d6f8a15d6b397486be4194fa2a7e308c8bd1859f95d049e40adfde",
        "sweep.csv": "cb3a4677c50328e3d9a41453281a25b2c593547502b2ccdb424d57051155f4d3",
        "sweep.json": "7c87e02977f366ef869810e047746bb5da87b76f0e3dd72205dae3c9dc970ecd",
        "u.csv": "ed5178560db5716c774df795e6ea377adfdd9770bf6e589fdd458e30ea53dea1",
        "u.json": "32f093543143b504454d0796a3220047a54e48875ae2c819c792dde3aeb759a0",
        "validate.json": "bedb173614fd84f663be122479dc79879e6c9c9c740c60b85a627ccff9b7c365",
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_are_pinned(name, tmp_path):
    assert report_digests(name, tmp_path) == GOLDEN[name]
