"""CLI contract: run/replay/sweep/verify, exit codes, reproducible outputs."""

from __future__ import annotations

import csv
import json

import pytest

from dispersim import cli


def write_config(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


ROOTED_RING3 = {
    "protocol": "rooted",
    "graph": {"generator": "ring", "n": 3},
    "robots": {"k": 3},
    "placement": {"root": 1},
    "faults": {},
}


def test_run_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", ROOTED_RING3)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["dispersed"] is True
    assert summary["rounds_elapsed"] <= 63
    trace_lines = (tmp_path / "out" / "trace.jsonl").read_text().splitlines()
    assert all(set(json.loads(l)) == {"round", "robot", "kind", "payload"} for l in trace_lines)


def test_run_unknown_robot_in_schedule_is_config_error(tmp_path):
    cfg = dict(ROOTED_RING3, faults={"schedule": [[99, 1]]})
    rc = cli.main(["run", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_run_garbage_config_is_config_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


def test_replay_reproduces_outputs_byte_for_byte(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "protocol": "rooted",
            "graph": {"generator": "random_connected", "n": 9, "m": 14, "seed": 4},
            "robots": {"k": 6},
            "placement": {"root": 1},
            "faults": {"random": {"f": 2, "seed": 11}},
        },
    )
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", cfg, "--out", out]) == 0
    before = (tmp_path / "out" / "summary.json").read_bytes()
    assert cli.main(["replay", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "out" / "summary.json").read_bytes() == before


def test_replay_detects_tampering(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", ROOTED_RING3)
    out = str(tmp_path / "out")
    cli.main(["run", "--config", cfg, "--out", out])
    summary_path = tmp_path / "out" / "summary.json"
    summary_path.write_text(summary_path.read_text().replace("true", "false"))
    assert cli.main(["replay", "--config", cfg, "--out", out]) == 1


def test_arbitrary_run_with_knowledge_override(tmp_path):
    cfg = write_config(
        tmp_path,
        "arb.json",
        {
            "protocol": "arbitrary",
            "graph": {"generator": "ring", "n": 10},
            "robots": {"k": 4},
            "placement": {
                "clusters": [
                    {"node": 1, "robots": [1, 2]},
                    {"node": 6, "robots": [3, 4]},
                ]
            },
            "faults": {"random": {"f": 1, "seed": 3}},
            "knowledge": {"phase_len": 16, "num_phases": 5},
        },
    )
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["dispersed"] is True


def test_exhaustive_fault_spec_writes_report(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "ex.json",
        {
            "protocol": "rooted",
            "graph": {"generator": "ring", "n": 4},
            "robots": {"k": 3},
            "placement": {"root": 1},
            "faults": {"exhaustive": {"f": 1}},
        },
    )
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["schedules_tested"] == 3 * 63
    assert report["failures"] == 0


def test_sweep_rounds_dominated_by_budget(tmp_path):
    cfg = write_config(
        tmp_path,
        "sweep.json",
        {
            "protocol": "rooted",
            "graph": {"generator": "ring", "n": 16},
            "placement": {"root": 1},
            "sweep": {"k": [2, 4, 8]},
        },
    )
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")])
    assert rc == 0
    with open(tmp_path / "sw" / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["k"]) for r in rows] == [2, 4, 8]
    for r in rows:
        assert r["dispersed"] == "True"
        assert int(r["rounds"]) <= 7 * int(r["k"]) ** 2


def test_sweep_empty_axis_gives_header_only(tmp_path):
    cfg = write_config(
        tmp_path,
        "sweep.json",
        {
            "protocol": "rooted",
            "graph": {"generator": "ring", "n": 8},
            "placement": {"root": 1},
            "sweep": {"k": []},
        },
    )
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")]) == 0
    text = (tmp_path / "sw" / "results.csv").read_text().strip().splitlines()
    assert len(text) == 1 and text[0].startswith("n,m,")


def test_sweep_arbitrary_axes_and_parallel_jobs_match(tmp_path):
    cfg = write_config(
        tmp_path,
        "sweep.json",
        {
            "protocol": "arbitrary",
            "graph": {"generator": "random_connected", "n": 10, "m": 16, "seed": 0},
            "sweep": {"k": [4, 6], "f": [0, 1], "l": [1, 2], "graph_seeds": [0, 1]},
            "seed": 9,
        },
    )
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "b"), "--jobs", "2"]) == 0
    assert (tmp_path / "a" / "results.csv").read_bytes() == (tmp_path / "b" / "results.csv").read_bytes()
    with open(tmp_path / "a" / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    assert all(r["dispersed"] == "True" for r in rows)


def test_verify_unknown_suite_is_usage_error():
    assert cli.main(["verify", "no-such-suite"]) == 2


def test_verify_determinism_suite(tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(["verify", "determinism", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True


def test_run_rejects_bad_placement(tmp_path):
    cfg = dict(ROOTED_RING3, placement={"root": 9})
    assert cli.main(["run", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]) == 2
    cfg2 = {
        "protocol": "arbitrary",
        "graph": {"generator": "ring", "n": 5},
        "robots": {"k": 3},
        "placement": {"clusters": [{"node": 1, "robots": [1, 2]}]},
    }
    assert cli.main(["run", "--config", write_config(tmp_path, "c2.json", cfg2), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "change",
    [
        {"faults": {"schedule": [[2, 0]]}},  # crash rounds start at 1
        {"faults": {"random": {"f": -1, "seed": 0}}},
        {"graph": {"generator": "ring", "n": 4}, "robots": {"k": 6}},  # k > n
    ],
    ids=["crash-round-0", "negative-f", "k-above-n"],
)
def test_run_bad_input_is_config_error(tmp_path, capsys, change):
    cfg = write_config(tmp_path, "bad.json", {**ROOTED_RING3, **change})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
