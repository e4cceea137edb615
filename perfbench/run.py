"""dispersim benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  Set-up (a fresh import of ``dispersim`` plus building the
workload's inputs from the seed) is timed several times.  Then whole
passes over the inputs repeat until ``--seconds`` have elapsed and the
workload's minimum pass count is reached.  Every run's output is checked;
the ordered run summaries of each pass are hashed, and the digest must be
identical across passes and, at the default seed, equal the pinned one.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations (set-up plus one pass) and prints the
per-layer metrics from the spans of the traced ones.  The last line of
standard output is always the result object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-out"
DEFAULT_SEED = 0
SETUP_REPEATS = 9

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

MODULES = ("graph", "engine", "rooted", "arbitrary", "oracle", "cli")


def fresh_import() -> SimpleNamespace:
    """Import dispersim from scratch, so every set-up pays for it."""
    for name in [m for m in sys.modules if m == "dispersim" or m.startswith("dispersim.")]:
        del sys.modules[name]
    importlib.import_module("dispersim")
    return SimpleNamespace(**{m: importlib.import_module(f"dispersim.{m}") for m in MODULES})


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    if pct >= 100:
        return ordered[-1]
    return statistics.quantiles(ordered, n=1000, method="inclusive")[round(pct * 10) - 1]


def latency_line(wl, passes) -> str:
    """Per-run latency: the median and the workload's tail percentile, with
    the sample count and how many samples lie beyond the tail.  Printed, not
    gated: short runs carry the machine's second-to-second speed changes."""
    latencies = [x for p in passes for x in p.latencies]
    tail = percentile(latencies, wl.tail_pct)
    return (
        f"run latency p50 {statistics.median(latencies):.6f} s, p{wl.tail_pct:g} {tail:.6f} s; "
        f"{len(latencies)} samples, {sum(1 for x in latencies if x > tail)} beyond the tail"
    )


# -- tracing ---------------------------------------------------------------------------


GRAPH_FUNCS = ("generate", "build", "from_adjacency", "ring", "path", "complete", "star", "random_connected")
MONITOR_FUNCS = (
    "one_mover_violations",
    "loop_violations",
    "retreat_violations",
    "counter_disagreements",
    "cluster_count_regressions",
)
CLI_SETUP_FUNCS = ("build_graph", "build_setup", "build_schedule")


def install_spans(rec: spans.SpanRecorder, ds) -> None:
    """Wrap every public entry point of each layer where it is bound.

    ``oracle`` and ``cli`` import ``run`` and ``event_line`` by name, so
    those bindings are wrapped apart from the engine module's own; ``run``
    reaches ``step`` and ``trace_hash`` through engine globals, and
    ``graph.generate`` dispatches to the generators through its own table,
    so ``generate`` and the generators are wrapped separately."""

    def events_peak(args, result):
        rec.counters["events_peak"] = max(rec.counters.get("events_peak", 0), len(result.world.trace))

    rec.wrap(ds.oracle, "run", "engine.run", events_peak)
    rec.wrap(ds.cli, "run", "engine.run", events_peak)
    rec.wrap(ds.engine, "step", "engine.step")
    rec.wrap(ds.engine, "trace_hash", "engine.trace_hash", lambda args, r: rec.count("trace_hash_events", len(args[0])))
    rec.wrap(ds.rooted.RootedDispersion, "memory_bits", "engine.memory_meter")
    rec.wrap(ds.arbitrary.ArbitraryDispersion, "memory_bits", "engine.memory_meter")
    rec.wrap(ds.rooted.RootedDispersion, "transition", "rooted.transition")
    rec.wrap(ds.arbitrary.ArbitraryDispersion, "transition", "arbitrary.transition")
    rec.wrap(ds.oracle, "enumerate_adversary", "oracle.enumerate")
    for fn in MONITOR_FUNCS:
        rec.wrap(ds.oracle, fn, f"oracle.{fn}")
    for fn in GRAPH_FUNCS:
        rec.wrap(ds.graph, fn, f"graph.{fn}")
    for fn in CLI_SETUP_FUNCS:
        rec.wrap(ds.cli, fn, f"cli.{fn}")
    rec.wrap(ds.cli, "event_line", "cli.trace_write", lambda args, line: rec.count("trace_write_bytes", len(line) + 1))


def layer_metrics(rec: spans.SpanRecorder, iterations: int, waste: dict, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures for one traced iteration (set-up plus one pass).

    ``waste`` holds the enumeration counts measured from outside and
    ``overhead`` the traced iterations' extra wall time as a share of the
    untraced ones'."""
    t = rec.totals()

    def each(total):
        # counts repeat exactly on every iteration, so they stay whole
        return total // iterations if isinstance(total, int) and total % iterations == 0 else total / iterations

    get = lambda name, key: each(t.get(name, {}).get(key, 0))
    per = lambda key: each(rec.counters.get(key, 0))
    run_s = get("engine.run", "s")
    covered = get("engine.step", "s") + get("engine.memory_meter", "s") + get("engine.trace_hash", "s")
    out = {
        "engine.run.calls": (get("engine.run", "calls"), "count"),
        "engine.run.s": (run_s, "s"),
        "engine.run.covered_frac": (covered / run_s if run_s else 0.0, "frac"),
        "engine.step.calls": (get("engine.step", "calls"), "count"),
        "engine.step.self_s": (get("engine.step", "self_s"), "s"),
        "engine.trace_hash.s": (get("engine.trace_hash", "s"), "s"),
        "engine.trace_hash.events": (per("trace_hash_events"), "count"),
        "engine.memory_meter.calls": (get("engine.memory_meter", "calls"), "count"),
        "engine.memory_meter.s": (get("engine.memory_meter", "s"), "s"),
        "engine.trace.events_peak": (rec.counters.get("events_peak", 0), "count"),
    }
    for proto in ("rooted", "arbitrary"):
        calls, secs = get(f"{proto}.transition", "calls"), get(f"{proto}.transition", "s")
        out[f"{proto}.transition.calls"] = (calls, "count")
        out[f"{proto}.transition.s"] = (secs, "s")
        out[f"{proto}.transition.ns_per_call"] = (secs * 1e9 / calls if calls else 0.0, "ns")
    calls, secs = rec.outermost([f"oracle.{fn}" for fn in MONITOR_FUNCS])
    out["oracle.monitors.s"] = (secs / iterations, "s")
    calls, secs = rec.outermost([f"graph.{fn}" for fn in GRAPH_FUNCS])
    out["graph.build.calls"] = (each(calls), "count")
    out["graph.build.s"] = (secs / iterations, "s")
    calls, secs = rec.outermost([f"cli.{fn}" for fn in CLI_SETUP_FUNCS])
    out["cli.setup.s"] = (secs / iterations, "s")
    out["cli.trace_write.s"] = (get("cli.trace_write", "s"), "s")
    out["cli.trace_write.bytes"] = (per("trace_write_bytes"), "bytes")
    out["oracle.enumerate.schedules"] = (waste["schedules"], "count")
    out["oracle.enumerate.round_steps"] = (waste["round_steps"], "count")
    out["oracle.enumerate.noop_frac"] = (waste["noop"] / waste["schedules"] if waste["schedules"] else 0.0, "frac")
    out["trace.overhead_frac"] = (overhead, "frac")
    return out


# -- main --------------------------------------------------------------------------------


def check_pass(name: str, seed: int, result, digests: list[str], pinned: dict) -> None:
    """Digest gate: identical across passes; equal to the pin at the default seed.
    A mismatch fails every run of the pass."""
    expected = pinned.get(name, "unpinned") if seed == DEFAULT_SEED else (digests[0] if digests else None)
    digests.append(result.digest)
    if expected is not None and result.digest != expected:
        result.problems.append(f"digest {result.digest} != expected {expected}")
        result.failed = result.runs


def timed_setup(wl, seed: int, workdir: Path):
    started = perf_counter()
    ds = fresh_import()
    inputs = wl.setup(ds, seed, workdir)
    return perf_counter() - started, ds, inputs


def measure(wl, ds, inputs, args, pinned: dict, setup_times: list[float], workdir: Path):
    """Repeat passes over the first set-up's inputs.  A set-up is timed after
    each pass, so set-up samples spread over the whole run; their inputs are
    identical and are dropped."""
    passes = []
    digests: list[str] = []
    started = perf_counter()
    while len(passes) < wl.min_passes or perf_counter() - started < args.seconds:
        result = wl.run_pass(ds, inputs)
        check_pass(args.workload, args.seed, result, digests, pinned)
        passes.append(result)
        setup_times.append(timed_setup(wl, args.seed, workdir)[0])
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(timed_setup(wl, args.seed, workdir)[0])
    return passes


def end_to_end(setup_times, passes) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "robot_steps_per_s": (statistics.median(p.robot_steps / p.wall_s for p in passes), "1/s"),
        "runs_per_s": (statistics.median(p.runs / p.wall_s for p in passes), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_rounds": (passes[0].sim_rounds, "rounds"),  # exact: the digest pins it across passes
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dispersim" / "__init__.py").is_file():
        print(f"no dispersim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]
    pinned = workloads.load_pinned()["digests"]
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        setup_s, ds, inputs = timed_setup(wl, args.seed, workdir)
        if not Path(ds.cli.__file__).resolve().is_relative_to(SRC):
            print(f"dispersim was imported from {ds.cli.__file__}, not {SRC}", file=sys.stderr)
            return 2

        if args.trace == 0:
            setup_times = [setup_s]
            passes = measure(wl, ds, inputs, args, pinned, setup_times, workdir)
            metrics = end_to_end(setup_times, passes)
            print(f"passes {len(passes)}; set-ups {len(setup_times)}")
            print("pass wall_s " + " ".join(f"{p.wall_s:.4f}" for p in passes))
            print(latency_line(wl, passes))
        else:
            passes, metrics = traced(wl, args, pinned, workdir)

        attempted = sum(p.runs for p in passes)
        failed = sum(p.failed for p in passes)
        for p in passes:
            for problem in p.problems[:5]:
                print(f"FAIL: {problem}", file=sys.stderr)
        print(f"digest {passes[0].digest}")
        print(f"failed_frac {failed / attempted if attempted else 1.0}")
        result = {
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result, sort_keys=True))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced(wl, args, pinned, workdir):
    """Alternate untraced and traced iterations (fresh import, set-up, one
    pass) until --seconds have elapsed, with at least one of each."""
    rec = spans.SpanRecorder()
    plain_walls, traced_walls = [], []
    passes = []
    digests: list[str] = []
    started = perf_counter()
    while not traced_walls or perf_counter() - started < args.seconds:
        for tracing in (False, True):
            t0 = perf_counter()
            ds = fresh_import()
            if tracing:
                install_spans(rec, ds)
            try:
                inputs = wl.setup(ds, args.seed, workdir)
                setup_s = perf_counter() - t0
                result = wl.run_pass(ds, inputs)
            finally:
                rec.restore()
            (traced_walls if tracing else plain_walls).append(setup_s + result.wall_s)
            check_pass(args.workload, args.seed, result, digests, pinned)
            passes.append(result)
    waste = {"schedules": 0, "round_steps": 0, "noop": 0}
    if args.workload == "exhaustive-1crash":
        waste = workloads.enumeration_waste(ds, inputs, result.records)
        print(
            "enumeration rooted-only: {rooted_schedules} schedules, {rooted_round_steps} round-steps, "
            "{rooted_noop} no-op".format(**waste)
        )
    plain = statistics.median(plain_walls)
    overhead = (statistics.median(traced_walls) - plain) / plain
    metrics = layer_metrics(rec, len(traced_walls), waste, overhead)
    path = rec.write(WORKDIR / "spans", f"{args.workload}-seed{args.seed}")
    print(f"spans {len(rec.start)} written to {path.relative_to(ROOT)}")
    return passes, metrics


if __name__ == "__main__":
    sys.exit(main())
