"""Command line front end: run / sweep / verify / replay.

Configs are single JSON files; every command is a pure function of its
config (plus seeds recorded in it), so any output can be reproduced
byte-for-byte.  Exit codes: 0 pass, 1 verification failure, 2 usage or
config error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from random import Random

from . import graph as graphs
from . import oracle
from .arbitrary import ArbitraryDispersion
# event_line stays bound: perfbench wraps cli.event_line as its trace_write span
from .engine import CrashSchedule, EngineError, event_line, run  # noqa: F401
from .rooted import RootedDispersion

default_clusters = oracle.default_clusters
determinism_configs = oracle.determinism_configs
run_monitors = oracle.run_monitors


class ConfigError(ValueError):
    pass


# -- config ---------------------------------------------------------------------


def load_config(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config nests too deeply to parse") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _int(value, what: str, low: int | None = None) -> int:
    if type(value) is not int or (low is not None and value < low):  # bool is not an int here
        raise ConfigError(f"{what} must be an integer" + ("" if low is None else f" >= {low}"))
    return value


def _section(spec: dict, key: str) -> dict:
    value = {} if spec.get(key) is None else spec[key]
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object")
    return value


GRAPH_ERRORS = {"generator": "graph generator failed", "ports": "bad port table", "edges": "bad edge list"}


def build_graph(spec: dict) -> graphs.PortGraph:
    if not isinstance(spec, dict):
        raise ConfigError("graph spec must be an object")
    kind = next((key for key in GRAPH_ERRORS if key in spec), None)
    if kind is None:
        raise ConfigError("graph spec needs 'generator', 'edges' or 'ports'")
    try:
        if kind == "generator":
            return graphs.generate(spec["generator"], **{k: v for k, v in spec.items() if k != "generator"})
        if kind == "ports":
            table = {int(v): [tuple(e) for e in row] for v, row in spec["ports"].items()}
            return graphs.from_adjacency(table)
        edges = [tuple(e) for e in spec["edges"]]
        return graphs.build(edges, port_rule=spec.get("port_rule", "sorted"), seed=spec.get("port_seed"))
    except (graphs.GraphError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise ConfigError(f"{GRAPH_ERRORS[kind]}: {exc}") from exc


def robot_ids(cfg: dict) -> list[int]:
    robots = _section(cfg, "robots")
    if "ids" in robots:
        ids = robots["ids"]
        valid = isinstance(ids, list) and ids and all(type(r) is int and r > 0 for r in ids)
        if not valid or len(set(ids)) < len(ids):
            raise ConfigError("robots.ids must be a non-empty list of distinct positive integers")
        return sorted(ids)
    if "k" not in robots:
        raise ConfigError("robots needs 'k' or 'ids'")
    return list(range(1, _int(robots["k"], "robots.k", 1) + 1))


def _setup_factory(cfg: dict, g: graphs.PortGraph, faults=None):
    """Validate a config's robots, placement and protocol parameters:
    (protocol factory, placement).  ``faults`` is the parsed faults section."""
    ids = robot_ids(cfg)
    if len(ids) > g.node_count:
        raise ConfigError(f"{len(ids)} robots cannot disperse on {g.node_count} nodes")
    kind = cfg.get("protocol")
    placement_spec = _section(cfg, "placement")
    if kind == "rooted":
        root = placement_spec.get("root")
        if type(root) is not int or not 1 <= root <= g.node_count:
            raise ConfigError("rooted placement needs a valid 'root' node")
        return partial(RootedDispersion, ids, g.max_degree()), {rid: root for rid in ids}
    if kind != "arbitrary":
        raise ConfigError("protocol must be 'rooted' or 'arbitrary'")
    raw = placement_spec.get("clusters")
    if not isinstance(raw, list):
        raise ConfigError("arbitrary placement needs a 'clusters' list")
    clusters, placement = [], {}
    for entry in raw:
        if not (isinstance(entry, dict) and isinstance(entry.get("robots"), list) and entry["robots"]):
            raise ConfigError("every cluster needs a 'node' and a non-empty 'robots' list")
        node = entry.get("node")
        if type(node) is not int or not 1 <= node <= g.node_count:
            raise ConfigError(f"cluster node {node!r} not in graph")
        if node in placement.values():
            raise ConfigError("cluster nodes must be distinct")
        clusters.append([_int(r, "a robot id") for r in entry["robots"]])
        placement.update((rid, node) for rid in clusters[-1])
    if sorted(placement) != ids or sum(map(len, clusters)) != len(ids):
        raise ConfigError("clusters must hold each declared robot exactly once")
    knowledge = _section(cfg, "knowledge")
    phases = {
        key: None if knowledge.get(key) is None else _int(knowledge[key], f"knowledge.{key}", 1)
        for key in ("phase_len", "num_phases")
    }
    kind, entry = _faults(cfg, ids) if faults is None else faults
    f = 0 if kind is None else len(entry) if kind == "schedule" else entry[0]
    return partial(ArbitraryDispersion, clusters, g.edge_count, g.max_degree(), faults=f, **phases), placement


def _first_protocol(factory):
    try:
        return factory()
    except ValueError as exc:  # e.g. the default phase length of a graph without edges
        raise ConfigError(f"bad protocol parameters: {exc}") from exc


def build_setup(cfg: dict, g: graphs.PortGraph):
    """Resolve (protocol, placement)."""
    factory, placement = _setup_factory(cfg, g)
    return _first_protocol(factory), placement


def _faults(cfg: dict, ids: list[int]):
    """The faults section's one entry, validated: ("schedule", CrashSchedule),
    ("random", (f, seed)), ("exhaustive", (f, horizon)) or (None, None)."""
    spec = _section(cfg, "faults")
    if len(spec) > 1 or not set(spec) <= {"schedule", "random", "exhaustive"}:
        raise ConfigError("faults takes one of 'schedule', 'random' or 'exhaustive'")
    kind = next(iter(spec), None)
    if kind == "schedule":
        pairs = spec["schedule"]
        if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
            raise ConfigError("faults.schedule must be a list of [robot, round] pairs")
        for rid, rnd in pairs:
            if type(rid) is not int or type(rnd) is not int:
                raise ConfigError("crash schedule entries must be integers")
            if rid not in ids:
                raise ConfigError(f"crash schedule names unknown robot {rid}")
        try:
            return kind, CrashSchedule.from_pairs(pairs)
        except EngineError as exc:
            raise ConfigError(f"bad crash schedule: {exc}") from exc
    if kind is None:
        return None, None
    entry = _section(spec, kind)
    f = _int(entry.get("f", 0), f"faults.{kind}.f", 0)
    if f > len(ids):
        raise ConfigError("more faults than robots")
    if kind == "random":
        return kind, (f, _int(entry.get("seed", 0), "faults.random.seed"))
    horizon = entry.get("horizon")
    return kind, (f, None if horizon is None else _int(horizon, "faults.exhaustive.horizon", 1))


def build_schedule(cfg: dict, ids: list[int], budget: int, faults=None) -> CrashSchedule:
    kind, entry = _faults(cfg, ids) if faults is None else faults
    if kind == "schedule":
        return entry
    if kind == "random":
        f, seed = entry
        return oracle.random_schedule(Random(seed), ids, f, budget)
    return CrashSchedule()


@dataclass(frozen=True)
class Scenario:
    """A validated config: graph, protocol factory and the protocol it made
    first, placement, crash schedule, round limit and, when faults.exhaustive
    asks for every crash schedule instead of one run, (f, horizon)."""

    graph: graphs.PortGraph
    factory: object
    protocol: object
    placement: dict[int, int]
    schedule: CrashSchedule
    max_rounds: int | None
    exhaustive: tuple[int, int | None] | None

    @classmethod
    def from_config(cls, cfg: dict, graph: graphs.PortGraph | None = None) -> Scenario:
        """Build and validate; ``graph`` replaces building cfg["graph"]."""
        g = build_graph(cfg.get("graph", {})) if graph is None else graph
        faults = _faults(cfg, robot_ids(cfg))
        factory, placement = _setup_factory(cfg, g, faults)
        protocol = _first_protocol(factory)
        schedule = build_schedule(cfg, sorted(placement), protocol.round_budget, faults)
        max_rounds = None if cfg.get("max_rounds") is None else _int(cfg["max_rounds"], "max_rounds", 0)
        exhaustive = faults[1] if faults[0] == "exhaustive" else None
        return cls(g, factory, protocol, placement, schedule, max_rounds, exhaustive)

    def run(self, trace_out=None):
        return run(self.graph, self.placement, self.protocol, self.schedule, self.max_rounds,
                   trace_out=trace_out)


def run_config_dict(cfg: dict):
    return Scenario.from_config(cfg).run()


# -- commands -----------------------------------------------------------------------


def apply_seed_override(cfg: dict, seed: int | None) -> dict:
    """--seed replaces every seeded choice recorded in the config."""
    if seed is None:
        return cfg
    cfg = dict(cfg, seed=seed)
    faults = _section(cfg, "faults")
    if "random" in faults:
        cfg["faults"] = dict(faults, random=dict(_section(faults, "random"), seed=seed))
    return cfg


def _out_dir(path: str) -> Path:
    """Create the --out directory, before any run starts."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use --out {path}: {exc}") from exc
    return out


def cmd_run(args) -> int:
    sc = Scenario.from_config(apply_seed_override(load_config(args.config), args.seed))
    out = _out_dir(args.out)
    if sc.exhaustive is not None:
        check = lambda res, sched: run_monitors(res, sc.protocol, sc.graph)
        report = oracle.enumerate_adversary(
            sc.graph, sc.placement, sc.factory, *sc.exhaustive, per_run_check=check
        )
        (out / "report.json").write_text(report.to_json() + "\n")
        print(report.to_json())
        return 0 if report.failures == 0 else 1

    # The trace streams to a temporary name and replaces trace.jsonl only once
    # the run has returned, so a run that raises leaves no partial trace.
    monitors = oracle.trace_monitors(sc.protocol)
    partial = out / "trace.jsonl.part"
    try:
        with open(partial, "w", encoding="utf-8") as fh:

            def sink(events, lines):
                fh.writelines(lines)
                for fold in monitors.values():
                    fold.feed(events)

            result = sc.run(trace_out=sink)
        partial.replace(out / "trace.jsonl")
    finally:
        partial.unlink(missing_ok=True)
    summary = json.dumps(result.summary(), sort_keys=True)
    (out / "summary.json").write_text(summary + "\n")
    print(summary)
    problems = run_monitors(result, sc.protocol, sc.graph, monitors)
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    return 1 if problems else 0


def cmd_replay(args) -> int:
    sc = Scenario.from_config(apply_seed_override(load_config(args.config), args.seed))
    out = Path(args.out)
    try:
        # compared as bytes, so a stored file that is not UTF-8 is a mismatch, not an error
        stored_summary = (out / "summary.json").read_bytes()
        stored_trace = open(out / "trace.jsonl", "rb")
    except OSError as exc:
        raise ConfigError(f"cannot read stored outputs: {exc}") from exc
    first_diff = None  # 1-based number of the first trace line that differs
    with stored_trace:
        count = 0

        def compare(events, lines):
            nonlocal count, first_diff
            for line in lines:
                count += 1
                if first_diff is None and stored_trace.readline() != line.encode():
                    first_diff = count

        fresh_summary = json.dumps(sc.run(trace_out=compare).summary(), sort_keys=True) + "\n"
        if first_diff is None and stored_trace.readline():
            first_diff = count + 1
    if stored_summary != fresh_summary.encode():
        print("REPLAY MISMATCH: summary differs", file=sys.stderr)
        return 1
    if first_diff is not None:
        print(f"REPLAY MISMATCH: trace differs at line {first_diff}", file=sys.stderr)
        return 1
    print("replay ok: " + fresh_summary.strip())
    return 0


SWEEP_HEADER = ["n", "m", "max_degree", "k", "f", "l", "protocol", "rounds", "dispersed", "max_memory_bits", "error"]


def _sweep_point(task: dict) -> list:
    """One sweep cell, or its error row; must stay importable for multiprocessing."""
    cfg = task["config"]
    try:
        g = build_graph(cfg["graph"])
        if cfg["protocol"] == "arbitrary":
            clusters = default_clusters(g.node_count, robot_ids(cfg), task["l"])
            cfg = dict(cfg, placement={"clusters": [{"node": v, "robots": grp} for v, grp in clusters]})
        sc = Scenario.from_config(cfg, g)
        result = sc.run(trace_out=lambda events, lines: None)  # the row reads no event, so none is kept
        row = [g.node_count, g.edge_count, g.max_degree(), sc.protocol.k, task["f"], task["l"], cfg["protocol"]]
        return row + [result.rounds_elapsed, result.dispersed, result.max_memory_bits, ""]
    except Exception as exc:  # recorded per row, sweep continues
        return ["", "", "", "", task["f"], task["l"], cfg["protocol"], "", "", "", str(exc)]


def cmd_sweep(args) -> int:
    # sweep is their only user: importing them here keeps them out of every other command
    import csv
    import multiprocessing

    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise ConfigError(f"--jobs must lie in 1..{cpus}")
    cfg = apply_seed_override(load_config(args.config), args.seed)
    axes = _section(cfg, "sweep")
    base_graph = _section(cfg, "graph")
    kind = cfg.get("protocol")
    if kind not in ("rooted", "arbitrary"):
        raise ConfigError("protocol must be 'rooted' or 'arbitrary'")
    ks = axes.get("k", [_section(cfg, "robots").get("k")])
    fs = axes.get("f", [0])
    ls = axes.get("l", [1]) if kind == "arbitrary" else [1]
    seeds = axes.get("graph_seeds", [None])
    if not all(isinstance(axis, list) for axis in (ks, fs, ls, seeds)):
        raise ConfigError("every sweep axis must be a list")
    if seeds != [None] and base_graph.get("generator") != "random_connected":
        raise ConfigError("graph_seeds axis needs the random_connected generator")

    tasks = []
    for k, f, l, seed in itertools.product(ks, fs, ls, seeds):
        if k is None:
            raise ConfigError("sweep needs a k axis or robots.k")
        point = {
            "protocol": kind,
            "graph": base_graph if seed is None else dict(base_graph, seed=seed),
            "robots": {"k": k},
            "placement": {"root": 1} if kind == "rooted" else None,
            "faults": {"random": {"f": f, "seed": cfg.get("seed", 0)}} if f else {},
            "knowledge": cfg.get("knowledge"),
            "max_rounds": cfg.get("max_rounds"),
        }
        tasks.append({"config": point, "f": f, "l": l})
    out = _out_dir(args.out)
    if args.jobs > 1:
        with multiprocessing.Pool(args.jobs) as pool:
            rows = pool.map(_sweep_point, tasks)
    else:
        rows = [_sweep_point(t) for t in tasks]

    with open(out / "results.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([SWEEP_HEADER, *rows])
    print(f"wrote {len(rows)} rows to {out / 'results.csv'}")
    return 1 if any(row[-1] for row in rows) else 0


def cmd_verify(args) -> int:
    out = Path(args.out) if args.out else None
    if out is not None:  # checked before the suite runs, as for run and sweep
        _out_dir(str(out.parent))
        if out.is_dir():
            raise ConfigError(f"cannot use --out {args.out}: it is a directory")
    passed, details = oracle.check_criterion(args.suite)
    line = json.dumps({"suite": args.suite, "passed": passed, **details}, sort_keys=True)
    print(line)
    if out is not None:
        out.write_text(line + "\n")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dispersim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
        ("run", cmd_run, "execute one simulation from a config file"),
        ("sweep", cmd_sweep, "run a parameter sweep, emit CSV"),
        ("replay", cmd_replay, "re-run a config and compare to stored outputs"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func=func)
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=1)
    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=oracle.CRITERIA)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except oracle.EnumerationTooLarge as exc:
        print(f"enumeration too large: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
