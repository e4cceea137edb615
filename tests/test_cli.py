"""CLI contract: run/replay/sweep/verify, exit codes, reproducible outputs."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dispersim import cli, engine, oracle

SAMPLE_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


@pytest.mark.parametrize(
    "tamper, line",
    [
        (lambda lines: lines[:4] + ['{"changed":1}\n'] + lines[5:], 5),
        (lambda lines: lines[:4], 5),  # a stored trace shorter than the fresh one
        (lambda lines: lines + ['{"extra":1}\n'], None),  # longer: the first extra line
    ],
    ids=["changed", "truncated", "extended"],
)
def test_replay_reports_the_first_differing_trace_line(tmp_path, capsys, tamper, line):
    cfg = write_config(tmp_path, "cfg.json", ROOTED_RING3)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trace.jsonl").read_text().splitlines(keepends=True)
    (out / "trace.jsonl").write_text("".join(tamper(lines)))
    capsys.readouterr()
    assert cli.main(["replay", "--config", cfg, "--out", str(out)]) == 1
    expected = len(lines) + 1 if line is None else line
    assert capsys.readouterr().err == f"REPLAY MISMATCH: trace differs at line {expected}\n"


def test_run_that_raises_midway_leaves_the_previous_outputs(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, "cfg.json", ROOTED_RING3)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real_step = engine.step

    def step_failing_at_round_3(world, *args):
        if world.round == 2:
            raise engine.EngineError("injected failure")
        return real_step(world, *args)

    monkeypatch.setattr(engine, "step", step_failing_at_round_3)
    with pytest.raises(engine.EngineError):
        cli.main(["run", "--config", cfg, "--out", str(out)])
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


STREAMED_CONFIGS = oracle.determinism_configs() + [
    json.loads(p.read_text()) for p in sorted(SAMPLE_CONFIGS.glob("*.json")) if "sweep" not in p.name
]


@pytest.mark.parametrize("index", range(len(STREAMED_CONFIGS)))
def test_streamed_run_hashes_and_writes_the_kept_trace(index):
    cfg = STREAMED_CONFIGS[index]
    kept = cli.Scenario.from_config(cfg).run()
    chunks, lines = [], []

    def sink(events, out):
        chunks.append(events)
        lines.extend(out)

    streamed = cli.Scenario.from_config(cfg).run(trace_out=sink)
    assert streamed.world.trace == []
    assert streamed.summary() == kept.summary()
    assert streamed.trace_hash == engine.trace_hash(kept.world.trace)
    assert lines == [engine.event_line(e) + "\n" for e in kept.world.trace]
    assert [e for chunk in chunks for e in chunk] == kept.world.trace


def test_run_memory_does_not_grow_with_the_trace(tmp_path, capsys):
    import tracemalloc

    # cut at 300 of its 1,332 rounds: tracemalloc makes the whole run take 12 s
    cfg = {**ROOTED_RING3, "graph": {"generator": "ring", "n": 30}, "robots": {"k": 30},
           "faults": {"schedule": [[3, 20]]}, "max_rounds": 300}
    path = write_config(tmp_path, "k30.json", cfg)

    def peak_bytes(work):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        work()
        return tracemalloc.get_traced_memory()[1] - start

    tracemalloc.start()
    try:
        kept = peak_bytes(lambda: cli.run_config_dict(cfg))
        streamed = peak_bytes(lambda: cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]))
    finally:
        tracemalloc.stop()
    assert streamed < kept / 4


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


@pytest.mark.parametrize("out", ["adir", "afile/report.json"], ids=["a-dir", "under-a-file"])
def test_verify_bad_out_is_config_error_before_the_suite_runs(tmp_path, capsys, monkeypatch, out):
    def no_suite(name):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(oracle, "check_criterion", no_suite)
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("")
    assert cli.main(["verify", "determinism", "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


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


ARBITRARY_RING6 = {
    "protocol": "arbitrary",
    "graph": {"generator": "ring", "n": 6},
    "robots": {"k": 2},
    "placement": {"clusters": [{"node": 1, "robots": [1, 2]}]},
}


@pytest.mark.parametrize(
    "change",
    [
        {"faults": {"schedule": [[2, 0]]}},  # crash rounds start at 1
        {"faults": {"random": {"f": -1, "seed": 0}}},
        {"graph": {"generator": "ring", "n": 4}, "robots": {"k": 6}},  # k > n
        {"placement": {"root": "a"}},
        {"placement": {"root": 1.5}},
        {**ARBITRARY_RING6, "placement": {"clusters": [{"node": 1}]}},
        {**ARBITRARY_RING6, "placement": {"clusters": 5}},
        {"faults": {"schedule": [[1]]}},
        {"robots": [1, 2, 3]},
        {"placement": [1]},
        {"max_rounds": "x"},
        {**ARBITRARY_RING6, "knowledge": {"phase_len": 0}},
        {**ARBITRARY_RING6, "graph": {"ports": {"1": []}}, "robots": {"k": 1},
         "placement": {"clusters": [{"node": 1, "robots": [1]}]}},
        {"faults": []},
        {"--out": "afile"},  # --out names an existing file
        {"--out": "afile/sub"},
    ],
    ids=[
        "crash-round-0",
        "negative-f",
        "k-above-n",
        "root-not-a-number",
        "root-not-an-integer",
        "cluster-without-robots",
        "clusters-not-a-list",
        "schedule-entry-without-round",
        "robots-a-list",
        "placement-a-list",
        "max-rounds-not-a-number",
        "phase-len-zero",
        "arbitrary-without-edges",
        "faults-a-list",
        "out-a-file",
        "out-under-a-file",
    ],
)
def test_run_bad_input_is_config_error(tmp_path, capsys, change):
    (tmp_path / "afile").write_text("")
    change = dict(change)
    out = tmp_path / change.pop("--out", "o")
    cfg = write_config(tmp_path, "bad.json", {**ROOTED_RING3, **change})
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["a-file", "under-a-file"])
def test_sweep_bad_out_is_config_error_before_any_run(tmp_path, capsys, monkeypatch, out):
    def no_run(task):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr(cli, "_sweep_point", no_run)
    (tmp_path / "afile").write_text("")
    cfg = str(SAMPLE_CONFIGS / "sweep_rings.json")
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1])
def test_sweep_jobs_outside_cpu_count_is_config_error(tmp_path, capsys, monkeypatch, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(cli.multiprocessing, "Pool", no_pool)
    cfg = str(SAMPLE_CONFIGS / "sweep_rings.json")
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path), "--jobs", str(jobs)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "results.csv").exists()


# Values of the wrong type for any config field.
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=2),
)
SMALL = st.integers(-1, 7)


def fields(**strategies):
    return st.fixed_dictionaries(strategies)


def either(*strategies):
    return st.one_of(*strategies, JUNK)


# Graphs stay at n <= 6, so every run of a well-formed config is short.
GRAPHS = either(
    st.sampled_from(["ring", "path", "star", "complete"]).flatmap(
        lambda kind: fields(generator=st.just(kind), n=st.integers(1, 6))
    ),
    st.integers(2, 6).flatmap(
        lambda n: fields(
            generator=st.just("random_connected"),
            n=st.just(n),
            m=st.integers(n - 1, n * (n - 1) // 2),
            seed=st.integers(0, 9),
        )
    ),
    fields(edges=st.lists(st.lists(st.integers(0, 6), max_size=3), max_size=8)),
    fields(ports=st.one_of(
        st.just({"1": []}),
        st.just({"1": [[2, 1]], "2": [[1, 1]]}),
        st.dictionaries(st.sampled_from(["1", "2", "3", "x"]), st.lists(either(st.lists(SMALL, max_size=3)), max_size=3)),
    )),
    fields(generator=JUNK, n=JUNK),
)
CLUSTER = fields(node=either(SMALL), robots=either(st.lists(SMALL, max_size=4)))
CONFIGS = fields(
    protocol=st.sampled_from(["rooted", "arbitrary", "other"]),
    graph=GRAPHS,
    robots=either(fields(k=either(SMALL)), fields(ids=either(st.lists(SMALL, max_size=7)))),
    placement=either(fields(root=either(SMALL)), fields(clusters=either(st.lists(CLUSTER, max_size=3)))),
    faults=either(
        fields(schedule=either(st.lists(st.lists(either(SMALL), max_size=3), max_size=3))),
        fields(random=either(fields(f=either(SMALL), seed=either(SMALL)))),
        # the exhaustive enumeration stays small: at most one crash, in the first three rounds
        fields(exhaustive=fields(f=st.integers(0, 1), horizon=st.integers(0, 3))),
    ),
    knowledge=either(fields(phase_len=either(st.integers(-1, 12)), num_phases=either(st.integers(-1, 4)))),
    max_rounds=either(st.integers(-1, 100)),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=CONFIGS)
def test_run_on_any_config_exits_cleanly(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["run", "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert rc in (0, 1, 2)
