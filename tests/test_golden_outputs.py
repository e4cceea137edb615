"""Golden outputs: the bytes `dispersim run` and `dispersim sweep` write for
the sample configs.  A refactor that changes any of them must say why and
re-pin them here."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from dispersim import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

RUN_SHA256 = {
    "arbitrary_clusters.json": {
        "summary.json": "61d4a40da4d7a024cce9123ed930e3a2ca08261af694bae8131aeb1871c22de0",
        "trace.jsonl": "d40d6070170a953c4841815794fb68b6fecdf2f482492a2cbeb25c50d78eec2b",
    },
    "rooted_ring6.json": {
        "summary.json": "be13e9f7718489776d9a4b22cac25cf304470c3f9647277576d04f08d721cd59",
        "trace.jsonl": "12e472fa0167d477b6dc6595d113380576b3a2aef21a9569bf3b6810146e9c3e",
    },
}
SWEEP_SHA256 = {"sweep_rings.json": "5cdecfa5b7da6124cde9ca2cbfedd44c5ccd34ba6b2cd877069098c7eaa77e0f"}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_sample_config_is_pinned():
    sweeps = {p.name for p in CONFIGS.glob("*.json") if "sweep" in json.loads(p.read_text())}
    runs = {p.name for p in CONFIGS.glob("*.json")} - sweeps
    assert (runs, sweeps) == (set(RUN_SHA256), set(SWEEP_SHA256))


@pytest.mark.parametrize("name", sorted(RUN_SHA256))
def test_run_outputs_are_byte_identical(tmp_path, capsys, name):
    assert cli.main(["run", "--config", str(CONFIGS / name), "--out", str(tmp_path)]) == 0
    assert {f: sha256(tmp_path / f) for f in RUN_SHA256[name]} == RUN_SHA256[name]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(SWEEP_SHA256))
def test_sweep_csv_is_byte_identical(tmp_path, capsys, name, jobs):
    args = ["sweep", "--config", str(CONFIGS / name), "--out", str(tmp_path), "--jobs", str(jobs)]
    assert cli.main(args) == 0
    assert sha256(tmp_path / "results.csv") == SWEEP_SHA256[name]
