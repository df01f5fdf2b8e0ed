"""The CLI's trace files and calibration overlay, pinned byte for byte.

Each output is pinned by its sha256 under the default config, so a
refactor of the writers or of the engine that changes a single byte of
what an operator reads fails here.  A deliberate change to an output
format updates the pinned digest in the same change.

`live` replaying the step4s feed that scripts/export_traces.py writes is
held to simulate's digests: both commands drive the same engine, which
applies each epoch's fix change and ll verdict, or a TICK for an epoch
with neither, itself and closes a fix still held at the end of input
with a FixLost, so they write the same verdicts and the same transitions.
"""

import hashlib

import pytest
from test_scripts import run_script

from timeguard.cli import main

SIMULATE_SHA256 = {
    "step4s": {
        "epochs.jsonl": "2253d6c5196298d0c60a731da20cf0ca79aa6466ca456c86560a6795fbab6529",
        "truth.csv": "8ac46263ff692d83827a7458ba59f43a50f86777c8c8769aeab5be4c7514f3fe",
        "verdicts.jsonl": "6f946c49d7bb9b2a91a1e63f2595b3b9c35b025db248f70f63629f79ff105ac8",
        "transitions.jsonl": "a1e026dc27159429720b93c9f23ed78c59d32f4d989ed6a84d0ef2cbdf3382f7",
        "report.json": "76bffc5f3b91645d602ca07a02c31e61d7c6feeb6aeb617dffee7e4f6f0db677",
    },
    "pull2us": {
        "epochs.jsonl": "74f256e7200b5ccf825ec6846da8f09f49ac1bc73a25d52bc1306d50f5b2015e",
        "truth.csv": "5357456e1ecab1c13c059bdfa686943875a2d97f4d6bf4fac128f7e00d923ee2",
        "verdicts.jsonl": "64ff48b9edb3b84d7f612ec0fd5e676cf5e3d068b58e6136d43e694a4591b3cd",
        "transitions.jsonl": "68c4fe3da5e2070999c088a5fc8a5a3e129a3468bc81e0c96b137ecfa4c4ba5a",
        "report.json": "c21dbf98170ec4e887ea4ed88efc09e8200e9a436cc68b2d066a35dd64c1e772",
    },
    # the attack behind the live-incr2us benchmark feed, with its ALARM transitions
    "incr2us": {
        "epochs.jsonl": "c09dc14303a601c2c18a0e37f4c287ec7caa490f647547598a975d0436e9e5f7",
        "truth.csv": "d757447dcd2503b9b491cf57317e877afbca7e10fdb65e877bb8e88a41db2633",
        "verdicts.jsonl": "5dd03570755dbebac74f0fe26dad065384c6c478697d0e6b0e18958ec0902a9f",
        "transitions.jsonl": "cf87d184c495e61b7cbef9856cfc3fb04f5edb2e4520625434ee588c91dfd365",
        "report.json": "37418ffa4aad8c4b46b44648b2b3ea4387ea99398bf539c1add24215245b39d4",
    },
}

CALIBRATE_STDOUT_SHA256 = "86a40289459768a5a8f9cffda40facf6fd632589399f8fd5550ae5738734960c"

# scripts/export_traces.py --scenario step4s
EXPORT_SHA256 = {
    "traces.csv": "085410a07d6bb3538ab27e37a1d8e6288d6892b36dc099a4abe0c9acf02c5e21",
    "feed.jsonl": "060b5ff349ff66beb8f860ef4ab69687bcba3a0851a334903014bdcc42d710ef",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(SIMULATE_SHA256))
def test_simulate_trace_files(name, tmp_path):
    main(["simulate", "--scenario", name, "--out-dir", str(tmp_path)])
    got = {f: sha256((tmp_path / f).read_bytes()) for f in SIMULATE_SHA256[name]}
    assert got == SIMULATE_SHA256[name]


def test_calibrate_stdout(capsys):
    main(["calibrate"])
    assert sha256(capsys.readouterr().out.encode()) == CALIBRATE_STDOUT_SHA256


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    out = tmp_path_factory.mktemp("export")
    done = run_script("export_traces.py", "--scenario", "step4s", "--out-dir", str(out))
    assert done.returncode == 0, done.stderr
    return out


def test_export_traces_step4s(exported):
    assert {f: sha256((exported / f).read_bytes()) for f in EXPORT_SHA256} == EXPORT_SHA256


def test_live_step4s_feed(exported, tmp_path):
    main(["live", "--feed", str(exported / "feed.jsonl"), "--out-dir", str(tmp_path)])
    # live writes the same verdicts and transitions as simulate
    traces = ("verdicts.jsonl", "transitions.jsonl")
    got = {f: sha256((tmp_path / f).read_bytes()) for f in traces}
    assert got == {f: SIMULATE_SHA256["step4s"][f] for f in traces}
