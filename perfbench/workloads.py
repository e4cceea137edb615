"""The three benchmark workloads.

Every workload has a ``setup(ds, seed, workdir)`` that builds its inputs
from the seed and a ``run_pass(ds, inputs)`` that runs them all once, one
run after another in this process (a closed loop with one client, no pool
and no threads), checks every output and returns a ``PassResult``.  ``ds``
holds the freshly imported ``dispersim`` modules; code here reaches the
program only through module attributes, so the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from time import perf_counter

ACTION_KINDS = ("move", "wait", "settle")


@dataclass
class PassResult:
    wall_s: float
    latencies: list[float]  # one per run, seconds
    runs: int
    failed: int
    robot_steps: int  # move, wait and settle events: one per robot transition
    sim_rounds: int
    digest: str  # SHA-256 over the ordered run summaries
    problems: list[str] = field(default_factory=list)
    records: list = field(default_factory=list)  # per-run data kept for layer counts


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _report_exception(where: str) -> str:
    traceback.print_exc(file=sys.stderr)
    return f"{where}: {sys.exc_info()[1]!r}"


def action_events(trace) -> int:
    return sum(1 for e in trace if e.kind in ACTION_KINDS)


# -- exhaustive-1crash ------------------------------------------------------------


@dataclass
class Instance:
    name: str
    graph: object
    placement: dict
    factory: object  # () -> fresh protocol
    monitors: object  # (result) -> list[str]
    k: int
    delta: int


def exhaustive_instances(ds) -> list[Instance]:
    """The instances of the rooted-exhaustive and arbitrary-exhaustive verify
    suites: every n <= 6 corpus graph, rooted with k in k_choices (k <= 5),
    arbitrary with k = ceil(n/2) in l = 1 and l = 2 clusters; f = 1."""
    oracle, cli = ds.oracle, ds.cli
    corpus = oracle.standard_corpus(max_n=6)
    out = []
    for name, g in corpus:
        delta = g.max_degree()
        for k in oracle.k_choices(g.node_count):
            if k > 5:
                continue
            ids = list(range(1, k + 1))
            factory = lambda ids=ids, delta=delta: ds.rooted.RootedDispersion(ids, delta)
            rank = factory().rank

            def monitors(result, rank=rank):
                trace = result.world.trace
                problems = []
                if ds.oracle.one_mover_violations(trace):
                    problems.append("one-mover")
                if ds.oracle.loop_violations(trace):
                    problems.append("loop")
                if ds.oracle.retreat_violations(trace, rank):
                    problems.append("retreat-overrun")
                return problems

            out.append(Instance(f"rooted/{name}/k={k}", g, {i: 1 for i in ids}, factory, monitors, k, delta))
    for name, g in corpus:
        n, delta = g.node_count, g.max_degree()
        k = (n + 1) // 2
        for l in (1, 2):
            if k < l:
                continue
            ids = list(range(1, k + 1))
            clusters = cli.default_clusters(n, ids, l)
            placement = {rid: node for node, grp in clusters for rid in grp}
            groups = [grp for _, grp in clusters]
            factory = lambda groups=groups, g=g: ds.arbitrary.ArbitraryDispersion(
                groups, g.edge_count, g.max_degree(), faults=1
            )
            phase_len = factory().phase_len

            def monitors(result, phase_len=phase_len):
                trace = result.world.trace
                problems = []
                if ds.oracle.counter_disagreements(trace):
                    problems.append("counter disagreement")
                if ds.oracle.cluster_count_regressions(trace, phase_len):
                    problems.append("cluster count increased")
                return problems

            out.append(Instance(f"arbitrary/{name}/l={l}", g, placement, factory, monitors, k, delta))
    return out


def setup_exhaustive(ds, seed: int, workdir: Path) -> dict:
    # exhaustive: the seed does not change the inputs
    return {"instances": exhaustive_instances(ds), "golden": load_pinned()["exhaustive_worst_trace_hash"]}


def run_exhaustive(ds, inputs) -> PassResult:
    records = []  # (instance index, crash entries, rounds, summary)
    latencies = []
    problems = []
    failed = 0
    missing = 0  # schedules an exception kept from running
    steps = 0
    reports = []
    started = perf_counter()
    for idx, inst in enumerate(inputs["instances"]):
        envelope = ds.oracle.memory_envelope(inst.k, inst.delta)
        last = perf_counter()

        def check(result, schedule, inst=inst, idx=idx, envelope=envelope):
            nonlocal last, steps
            found = inst.monitors(result)
            if result.max_memory_bits > envelope:
                found.append("memory envelope exceeded")
            steps += action_events(result.world.trace)
            records.append((idx, schedule.entries, result.rounds_elapsed, result.summary()))
            now = perf_counter()
            latencies.append(now - last)
            last = now
            return found

        before = len(records)
        try:
            report = ds.oracle.enumerate_adversary(inst.graph, inst.placement, inst.factory, f=1, per_run_check=check)
        except Exception:
            problems.append(_report_exception(inst.name))
            expected = inst.k * inst.factory().round_budget
            failed += expected
            missing += expected - (len(records) - before)
            continue
        reports.append((inst.name, report.to_json()))
        failed += report.failures
        if report.failures:
            problems.append(f"{inst.name}: {report.failure_examples[:1]}")
        if report.worst_trace_hash != inputs["golden"].get(inst.name):
            problems.append(f"{inst.name}: worst_trace_hash {report.worst_trace_hash} is not the pinned one")
            failed += report.schedules_tested - report.failures
    wall = perf_counter() - started
    names = [inst.name for inst in inputs["instances"]]
    lines = [json.dumps([names[i], entries, summary], sort_keys=True) for i, entries, _, summary in records]
    lines += [json.dumps(r, sort_keys=True) for r in reports]
    return PassResult(
        wall_s=wall,
        latencies=latencies,
        runs=len(records) + missing,
        failed=failed,
        robot_steps=steps,
        sim_rounds=sum(r[2] for r in records),
        digest=_digest(lines),
        problems=problems,
        records=records,
    )


def enumeration_waste(ds, inputs, records) -> dict:
    """Work the enumeration spends on schedules whose crash can never fire.

    Measured from outside: the crash-free run of each instance stops after
    R0 rounds, so a schedule crashing at a round after R0 repeats the
    crash-free run exactly.  Returns totals and the rooted-only share."""
    stop = []
    for inst in inputs["instances"]:
        stop.append(ds.engine.run(inst.graph, inst.placement, inst.factory()).rounds_elapsed)
    out = {"schedules": 0, "round_steps": 0, "noop": 0, "rooted_schedules": 0, "rooted_round_steps": 0, "rooted_noop": 0}
    for idx, entries, rounds, _ in records:
        noop = all(rnd > stop[idx] for _, rnd in entries)
        rooted = inputs["instances"][idx].name.startswith("rooted/")
        for prefix in ("", "rooted_") if rooted else ("",):
            out[prefix + "schedules"] += 1
            out[prefix + "round_steps"] += rounds
            out[prefix + "noop"] += noop
    return out


# -- rooted-large ---------------------------------------------------------------------

ROOTED_K = 40
ROOTED_CRASHES = 3


def setup_rooted(ds, seed: int, workdir: Path) -> dict:
    """One rooted run on random_connected(2k, 4k, seed) from root 1.

    The seed also draws three crashes among the robots of rank 2..10 in the
    first 150 rounds: they hit travellers and settled robots near the root,
    so later travellers must repair the tree.  Epochs last 3i rounds
    whatever the graph, so the run's length barely depends on the seed."""
    rng = Random(seed)
    k = ROOTED_K
    victims = rng.sample(range(2, 11), ROOTED_CRASHES)
    cfg = {
        "protocol": "rooted",
        "graph": {"generator": "random_connected", "n": 2 * k, "m": 4 * k, "seed": rng.randrange(2**31)},
        "robots": {"k": k},
        "placement": {"root": 1},
        "faults": {"schedule": [[v, rng.randint(1, 150)] for v in victims]},
    }
    cli = ds.cli
    g = cli.build_graph(cfg["graph"])
    protocol, placement = cli.build_setup(cfg, g)
    cli.build_schedule(cfg, sorted(placement), protocol.round_budget)
    cfg_path = workdir / "rooted-large.json"
    cfg_path.write_text(json.dumps(cfg, sort_keys=True))
    return {
        "config": str(cfg_path),
        "out": workdir / "rooted-large-out",
        "k": k,
        "budget": protocol.round_budget,
        "envelope": ds.oracle.memory_envelope(k, g.max_degree()),
        "steps": None,  # counted from the first pass's trace file
    }


def run_rooted(ds, inputs) -> PassResult:
    out = inputs["out"]
    shutil.rmtree(out, ignore_errors=True)  # so a file the run failed to write cannot pass as fresh
    stdout = io.StringIO()
    started = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            rc = ds.cli.main(["run", "--config", inputs["config"], "--out", str(out)])
    except Exception:
        wall = perf_counter() - started
        return PassResult(wall, [wall], 1, 1, 0, 0, "", [_report_exception("dispersim run")])
    wall = perf_counter() - started

    problems = []
    summary_text = (out / "summary.json").read_text()
    summary = json.loads(summary_text)
    trace_bytes = (out / "trace.jsonl").read_bytes()
    if rc != 0:
        problems.append(f"dispersim run exited {rc}")
    if stdout.getvalue() != summary_text:
        problems.append("printed summary differs from summary.json")
    if hashlib.sha256(trace_bytes).hexdigest() != summary["trace_hash"]:
        problems.append("trace.jsonl does not hash to trace_hash")
    if not summary["dispersed"]:
        problems.append("did not disperse")
    if summary["rounds_elapsed"] > inputs["budget"]:
        problems.append(f"rounds {summary['rounds_elapsed']} exceed 7k^2 = {inputs['budget']}")
    if summary["max_memory_bits"] > inputs["envelope"]:
        problems.append(f"memory {summary['max_memory_bits']} exceeds {inputs['envelope']}")
    if inputs["steps"] is None:
        kinds = (json.loads(line)["kind"] for line in trace_bytes.decode().splitlines())
        inputs["steps"] = sum(1 for kind in kinds if kind in ACTION_KINDS)
    return PassResult(
        wall_s=wall,
        latencies=[wall],
        runs=1,
        failed=1 if problems else 0,
        robot_steps=inputs["steps"],
        sim_rounds=summary["rounds_elapsed"],
        digest=_digest([summary_text]),
        problems=problems,
    )


# -- arbitrary-sweep --------------------------------------------------------------------

SWEEP_N = (60, 100)
SWEEP_L = (1, 3, 6)
SWEEP_F = (0, 2)
SWEEP_GRAPHS = 2  # graphs per (n, l, f) point


def setup_sweep(ds, seed: int, workdir: Path) -> dict:
    """Config dicts for every (n, l, f) point: random_connected(n, 2n) with
    k = n/2 robots in l evenly spaced clusters and f random crashes, on
    SWEEP_GRAPHS graphs each.

    The graphs are fixed (a graph's seed is its config's position), so every
    seed does comparable work; the seed draws the crash schedules."""
    rng = Random(seed)
    configs = []
    for n in SWEEP_N:
        k = n // 2
        ids = list(range(1, k + 1))
        for l in SWEEP_L:
            clusters = ds.cli.default_clusters(n, ids, l)
            for f in SWEEP_F:
                for _ in range(SWEEP_GRAPHS):
                    cfg = {
                        "protocol": "arbitrary",
                        "graph": {"generator": "random_connected", "n": n, "m": 2 * n, "seed": len(configs) + 1},
                        "robots": {"k": k},
                        "placement": {"clusters": [{"node": v, "robots": grp} for v, grp in clusters]},
                        "faults": {"random": {"f": f, "seed": rng.randrange(2**31)}} if f else {},
                    }
                    g = ds.cli.build_graph(cfg["graph"])
                    protocol, placement = ds.cli.build_setup(cfg, g)
                    ds.cli.build_schedule(cfg, sorted(placement), protocol.round_budget)
                    configs.append(cfg)
    return {"configs": configs}


def run_sweep(ds, inputs) -> PassResult:
    cli = ds.cli
    latencies = []
    lines = []
    problems = []
    failed = 0
    steps = 0
    rounds = 0
    for i, cfg in enumerate(inputs["configs"]):
        started = perf_counter()
        try:
            g = cli.build_graph(cfg["graph"])
            protocol, placement = cli.build_setup(cfg, g)
            schedule = cli.build_schedule(cfg, sorted(placement), protocol.round_budget)
            result = cli.run(g, placement, protocol, schedule, max_rounds=cfg.get("max_rounds"))
            found = cli.run_monitors(result, protocol, g)
        except Exception:
            latencies.append(perf_counter() - started)
            problems.append(_report_exception(f"config {i}"))
            failed += 1
            continue
        latencies.append(perf_counter() - started)
        if found:
            failed += 1
            problems.append(f"config {i}: {found}")
        steps += action_events(result.world.trace)
        rounds += result.rounds_elapsed
        lines.append(json.dumps([i, result.summary()], sort_keys=True))
    return PassResult(
        wall_s=sum(latencies),
        latencies=latencies,
        runs=len(inputs["configs"]),
        failed=failed,
        robot_steps=steps,
        sim_rounds=rounds,
        digest=_digest(lines),
        problems=problems,
    )


# -- registry ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: object
    run_pass: object
    min_passes: int  # so the run-latency tail has enough samples
    tail_pct: float  # fixed per workload, so it means the same on every run


WORKLOADS = {
    "exhaustive-1crash": Workload(setup_exhaustive, run_exhaustive, 1, 99.0),
    "rooted-large": Workload(setup_rooted, run_rooted, 3, 100.0),
    "arbitrary-sweep": Workload(setup_sweep, run_sweep, 5, 90.0),
}

PINNED = Path(__file__).resolve().parent / "pinned.json"


def load_pinned() -> dict:
    return json.loads(PINNED.read_text())
