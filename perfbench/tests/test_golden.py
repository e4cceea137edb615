"""Golden hashes and the benchmark's own contract.

Perf work on the simulator must leave every hash pinned in
``perfbench/pinned.json`` unchanged.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from dispersim import arbitrary, cli, engine, graph, oracle, rooted  # noqa: E402

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PINNED = workloads.load_pinned()
DS = SimpleNamespace(graph=graph, engine=engine, rooted=rooted, arbitrary=arbitrary, oracle=oracle, cli=cli)


@pytest.mark.parametrize("index", range(len(cli.determinism_configs())))
def test_determinism_config_trace_hash(index):
    cfg = cli.determinism_configs()[index]
    assert cli.run_config_dict(cfg).trace_hash == PINNED["determinism_trace_hash"][index]


def test_exhaustive_instances_match_the_verify_suites():
    instances = workloads.exhaustive_instances(DS)
    assert sorted(i.name for i in instances) == sorted(PINNED["exhaustive_worst_trace_hash"])
    schedules = {"rooted": 0, "arbitrary": 0}
    for inst in instances:
        schedules[inst.name.split("/")[0]] += inst.k * inst.factory().round_budget
    assert schedules == {"rooted": 12817, "arbitrary": 2082}


def test_exhaustive_worst_trace_hashes():
    mismatched = []
    for inst in workloads.exhaustive_instances(DS):
        report = oracle.enumerate_adversary(inst.graph, inst.placement, inst.factory, f=1)
        if report.worst_trace_hash != PINNED["exhaustive_worst_trace_hash"][inst.name]:
            mismatched.append(inst.name)
    assert not mismatched


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    fake = workloads.PassResult(1.0, [0.1, 0.2, 0.3], 3, 0, 10, 5, "")
    assert set(bench.end_to_end([0.1], [fake])) == {m["name"] for m in spec["end_to_end"]}
    waste = {"schedules": 0, "round_steps": 0, "noop": 0}
    layers = bench.layer_metrics(spans.SpanRecorder(), 1, waste, 0.0)
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_spans_derive_self_time_and_restore_every_binding():
    before = {(id(owner), attr): getattr(owner, attr, None) for owner, attr in _bindings()}
    rec = spans.SpanRecorder()
    bench.install_spans(rec, DS)
    assert all(getattr(owner, attr) is not before[(id(owner), attr)] for owner, attr in _bindings())
    try:
        cli.run_config_dict(cli.determinism_configs()[1])
    finally:
        rec.restore()
    assert all(getattr(owner, attr) is before[(id(owner), attr)] for owner, attr in _bindings())
    totals = rec.totals()
    step = totals["engine.step"]
    assert step["calls"] > 0
    assert step["self_s"] == pytest.approx(step["s"] - totals["rooted.transition"]["s"], abs=1e-6)
    assert rec.counters["events_peak"] == rec.counters["trace_hash_events"]


def _bindings():
    out = [(oracle, "run"), (cli, "run"), (engine, "step"), (engine, "trace_hash"), (cli, "event_line")]
    protocols = (rooted.RootedDispersion, arbitrary.ArbitraryDispersion)
    out += [(cls, m) for cls in protocols for m in ("memory_bits", "transition")]
    out += [(oracle, "enumerate_adversary")] + [(oracle, f) for f in bench.MONITOR_FUNCS]
    out += [(graph, f) for f in bench.GRAPH_FUNCS] + [(cli, f) for f in bench.CLI_SETUP_FUNCS]
    return out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rooted-large", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _single_cluster(n: int, graph_seed: int, crashes: list) -> dict:
    return {
        "protocol": "arbitrary",
        "graph": {"generator": "random_connected", "n": n, "m": 2 * n, "seed": graph_seed},
        "robots": {"k": n // 2},
        "placement": {"clusters": [{"node": 1, "robots": list(range(1, n // 2 + 1))}]},
        "faults": {"schedule": crashes},
    }


# arbitrary-sweep configs that do not disperse.  A crash delays the single
# cluster, so it is still exploring when the phase ends.  At the reset the
# robot settled where the cluster stands becomes the root of the new phase's
# DFS, but it takes the cluster's entry port as its parent pointer.  When the
# DFS closes a cycle back into the root through that port, the arrival reads
# as a return along a tree edge, and the cluster circles the same settled
# nodes, settling no one, until the budget runs out.
NON_DISPERSING = {
    "seed25-config15": _single_cluster(100, 16, [[4, 270], [7, 12]]),
    "seed470047588-config2": _single_cluster(60, 3, [[13, 35], [27, 115]]),
}


@pytest.mark.xfail(strict=True, reason="arbitrary protocol: a phase root keeps its entry port as parent pointer")
@pytest.mark.parametrize("name", sorted(NON_DISPERSING))
def test_arbitrary_sweep_config_with_crash_disperses(name):
    assert cli.run_config_dict(NON_DISPERSING[name]).dispersed
