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
        "mp_antisym.json": "cc5a87dfd2f3ec4e13dd8669ddc3a55e7d89041d54a12fc61d9f0c0a698b18df",
        "mp_boundary.json": "aadcd52c61c3a78f8d66b551e9411fae4af4c3abfda18818d6859f96142fcfdb",
        "mp_strong.json": "ca5f797c3daa378784c787d8513fc0f85178645b75bec8660fbc8a2313e1f334",
        "profile.csv": "e695fe66fbde2236d3257173c5e5205ba77339e01d25b2854ada611d9bedbd9b",
        "residual_history.csv": "cf0eb9bc9a0e273f39f1cefc409dde3f9e3f1b7f87cb82e7603224210bda04c9",
        "solve.json": "0cd42ce8a0b102187b0fe240508ce730926ccbb18ee9957182cdaeb4df879d3f",
        "summary.json": "aa97b0fecd7ee7da2d3ed4adb824b45687e97bd1284a949bb992846807a32e6e",
        "sweep.csv": "0d98c3f1c2937b4c609458c60f5900cd2b0a562a258abd311c108950d612d35c",
        "sweep.json": "a2c9a68a76009db148893d95f5c932dc651f083143f90c4c3fd6ea008557f6fd",
        "u.csv": "382683e596339b2ebad6da147d00e8ee72c38b4b34a4fdced7fe8c25cf0ca195",
        "u.json": "bcee8cbf8210a5d16d75c8bf4b87ee2e329831a0e5013bae26d0eea7630176ae",
        "validate.json": "5a463b5d0cc37bbee034b93fa183f8334d39b2cfe2b2e29314391fdf99d02894",
    },
    "2d_n15": {
        "lemmas.json": "61d3dc30abf435264a50ce46672e56c6636d21cd7edac678d961953196213b56",
        "mp_antisym.json": "85ece81511faa15d62a11a2fd2030163ec562a2efd6f58cbbd0c2f8f63fe6a86",
        "mp_boundary.json": "e370fb3f24ad19c5ad7252a1134b2b1bccb91df716acc6e999fd8895801df5bb",
        "mp_strong.json": "e10a395dfa18e6ea556263fef86f6a5d901212a259034de16e18e7b827978795",
        "profile.csv": "8418452db0c05e8d7e921032c309b54856fbc0b3abe90915b38fa98ce6b87d65",
        "residual_history.csv": "8079571b136f81d0afe295267052439bd421d2c73573db845f58850fda7bc74c",
        "solve.json": "1d21663b7d75c860aeaa3df27e5d3b4da2c918d56e039a8a15a72a76b3423647",
        "summary.json": "649c19e454c424b833240b81284103d5075265ba56c32e01b287e0eb6536825f",
        "sweep.csv": "33583bba67c3356c46384d2fc863cbbea0fd71e19f382f5870a45fe2e710b0a3",
        "sweep.json": "642c20247e42baca4b748db48988c75bbdd53dc4c54cc82a1e406b892dcb8169",
        "u.csv": "b3e56c48eb829741845ff78f03378445b0440bc76115f609470a050e97d4bab8",
        "u.json": "32f093543143b504454d0796a3220047a54e48875ae2c819c792dde3aeb759a0",
        "validate.json": "bedb173614fd84f663be122479dc79879e6c9c9c740c60b85a627ccff9b7c365",
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_are_pinned(name, tmp_path):
    assert report_digests(name, tmp_path) == GOLDEN[name]
