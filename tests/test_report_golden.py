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
        "mp_antisym.json": "a1ef933de2f0bf5438793438026ef8148ef770f2e498e4312278d11668720cc1",
        "mp_boundary.json": "fa7478d10b9d4dcce5cd94f7345d6c2111e9f4042637626e8ae822a78ec5e30d",
        "mp_strong.json": "5f646ee6654adc6b037c29384e908f1731ef91fa4386018463e860569e8f9a57",
        "profile.csv": "0446b219ecca962dc7fba064c4f2b1dd95685448414e26f4faa89cb4dc187045",
        "residual_history.csv": "13875734052ad90bba9d38e708175958b73c0cf46ec1f6ccd578db1771bf47cb",
        "solve.json": "92d8b0d8cf7966692ed44fb1632b1c6505edc30fe2706415289a59435fc3f28f",
        "summary.json": "b2112d72ae6969fd5d140312e5ac9435ad240c08d350945ca11c87bfdaa4e841",
        "sweep.csv": "071f752101804a79cf2e39a4a5b3445f750c6129933c5e921669982d5e7c3eff",
        "sweep.json": "1390844bad7d8d3d9362b79510e5d0d4df5b54df9b7ad179056c36a239edb6b2",
        "u.csv": "8c46c7b7a424942010974fe52d41b4c19847d7643d2c3e51f1914f4bdc1ef92b",
        "u.json": "bcee8cbf8210a5d16d75c8bf4b87ee2e329831a0e5013bae26d0eea7630176ae",
        "validate.json": "5a463b5d0cc37bbee034b93fa183f8334d39b2cfe2b2e29314391fdf99d02894",
    },
    "2d_n15": {
        "lemmas.json": "61d3dc30abf435264a50ce46672e56c6636d21cd7edac678d961953196213b56",
        "mp_antisym.json": "c66f58e9b5c5855102bb550c65e4816b059880c103f158576a6006f8c848b690",
        "mp_boundary.json": "7f6819942350a86e02df46ef5fd467ed0c3470bb96d4aa0bacbe968b42bedf74",
        "mp_strong.json": "571e7b1400b452409e5a1c2f952357bbbece7fd444857338a31bb01fa6c00dea",
        "profile.csv": "e8c8c6e7589a51e42e19f4243bafbdc888b42e12e458874b83e3b04888c89d44",
        "residual_history.csv": "3de4445b5bf76a4295da61db546a4839074ce4be823cf566db03756ec11fdfc0",
        "solve.json": "5d0c3cca64499497903615b1229879373b32f69f2b19878860b3aa08a69a8b00",
        "summary.json": "a68f319bc7fc2879f2215dddee59e90f72ba1881044bcbde7aaa6ef91d0bc0e3",
        "sweep.csv": "ee9dd51926eef31082ab0ff93298becfce3c49fcf7a9ad45a6b8e4b1f76dc69c",
        "sweep.json": "8ac570106f281b16bf1c6dd427d634abef4b2a7ff91aff08ce88d59ef74f2026",
        "u.csv": "ce3514015dbee4776c883b92cc4d4139b5f78cf9e2b060f38c5063fc6c56adad",
        "u.json": "32f093543143b504454d0796a3220047a54e48875ae2c819c792dde3aeb759a0",
        "validate.json": "bedb173614fd84f663be122479dc79879e6c9c9c740c60b85a627ccff9b7c365",
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_are_pinned(name, tmp_path):
    assert report_digests(name, tmp_path) == GOLDEN[name]
