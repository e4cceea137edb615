"""Golden outputs: the bytes `dispersim run` and `dispersim sweep` write for
the sample configs.  A refactor that changes any of them must say why and
re-pin them here."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from dispersim import cli, oracle

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
# trace_hash of each oracle.determinism_configs() entry, in order
DETERMINISM_TRACE_HASH = [
    "27f9def332e0e9cb244cb37dc6b05b8357d5a6dde92af403319b4d24ca3eb057",
    "192e50a4156c378bec9795de29a4684c7309f12dd0b9a2d71a6b974578422333",
    "12e472fa0167d477b6dc6595d113380576b3a2aef21a9569bf3b6810146e9c3e",
    "c2e12385d919868b3584456269526917f571b0de0ce943ab985986e74953634f",
    "c2a019bdfe11d33e0de90ddeec4f96e4d302f6f3c79ab5072bae417f21fa021f",
    "cb1a6bdc4f7195388307a719ec7086bf2536ebe529ab5dea6f0e162ca1323043",
    "f295e7d6565b998aeee9b6d43cdd8e2ff4514afd85c9271226ee1aa11362c703",
    "cb98bf70386d177cdabd4934cc92b07058bb48307e5c4129e4c10af9de74b35a",
    "ae80bc34bb9f96723e7de36ff3277a4558fad46aaeba26447a7abbf5aebeb441",
    "7191469a0953339835542ccfc67a831ce9dc40981a5ccebbce0f2c64886fac3b",
]
# Sweep-scale clustered runs, built as the arbitrary sweep builds them:
# random_connected(n, 2n), k = n/2 in l default_clusters, f random crashes.
# (n, l, f, fault seed, graph seed) -> (rounds, trace_hash)
SWEEP_SCALE_RUNS = {
    (60, 1, 0, None, 1): (43, "4c19c84650b7407c2037af4e2edb9a391a17afabe79409ddd919113023dbceec"),
    (100, 6, 2, 2, 2): (472, "19346c965f3fa0e45075e4536ec9bc1f8ae13e6daf6c6d73fa577414708d3c1e"),
}


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


def test_determinism_configs_cover_the_pins():
    assert len(oracle.determinism_configs()) == len(DETERMINISM_TRACE_HASH)


@pytest.mark.parametrize("index", range(len(DETERMINISM_TRACE_HASH)))
def test_determinism_config_trace_hash(index):
    cfg = oracle.determinism_configs()[index]
    assert cli.run_config_dict(cfg).trace_hash == DETERMINISM_TRACE_HASH[index]


@pytest.mark.parametrize("point", sorted(SWEEP_SCALE_RUNS, key=str))
def test_sweep_scale_arbitrary_run(point):
    n, l, f, fault_seed, graph_seed = point
    k = n // 2
    clusters = cli.default_clusters(n, list(range(1, k + 1)), l)
    cfg = {
        "protocol": "arbitrary",
        "graph": {"generator": "random_connected", "n": n, "m": 2 * n, "seed": graph_seed},
        "robots": {"k": k},
        "placement": {"clusters": [{"node": v, "robots": grp} for v, grp in clusters]},
        "faults": {"random": {"f": f, "seed": fault_seed}} if f else {},
    }
    result = cli.run_config_dict(cfg)
    assert result.dispersed
    assert (result.rounds_elapsed, result.trace_hash) == SWEEP_SCALE_RUNS[point]
