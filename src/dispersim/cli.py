"""Command line front end: run / sweep / verify / replay.

Configs are single JSON files; every command is a pure function of its
config (plus seeds recorded in it), so any output can be reproduced
byte-for-byte.  Exit codes: 0 pass, 1 verification failure, 2 usage or
config error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import multiprocessing
import sys
from pathlib import Path
from random import Random

from . import graph as graphs
from . import oracle
from .arbitrary import ArbitraryDispersion
from .engine import CrashSchedule, EngineError, event_line, run
from .rooted import RootedDispersion


class ConfigError(ValueError):
    pass


# -- config ---------------------------------------------------------------------


def load_config(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def build_graph(spec: dict) -> graphs.PortGraph:
    if not isinstance(spec, dict):
        raise ConfigError("graph spec must be an object")
    if "generator" in spec:
        params = {k: v for k, v in spec.items() if k != "generator"}
        try:
            return graphs.generate(spec["generator"], **params)
        except (graphs.GraphError, TypeError) as exc:
            raise ConfigError(f"graph generator failed: {exc}") from exc
    if "ports" in spec:
        try:
            table = {int(v): [tuple(e) for e in row] for v, row in spec["ports"].items()}
            return graphs.from_adjacency(table)
        except (graphs.GraphError, ValueError) as exc:
            raise ConfigError(f"bad port table: {exc}") from exc
    if "edges" in spec:
        rule = spec.get("port_rule", "sorted")
        try:
            return graphs.build(
                [tuple(e) for e in spec["edges"]], port_rule=rule, seed=spec.get("port_seed")
            )
        except graphs.GraphError as exc:
            raise ConfigError(f"bad edge list: {exc}") from exc
    raise ConfigError("graph spec needs 'generator', 'edges' or 'ports'")


def robot_ids(cfg: dict) -> list[int]:
    robots = cfg.get("robots", {})
    if "ids" in robots:
        ids = [int(r) for r in robots["ids"]]
    else:
        try:
            ids = list(range(1, int(robots["k"]) + 1))
        except (KeyError, ValueError) as exc:
            raise ConfigError("robots needs 'k' or 'ids'") from exc
    if len(set(ids)) != len(ids) or not ids:
        raise ConfigError("robot ids must be distinct and non-empty")
    return sorted(ids)


def default_clusters(n: int, ids: list[int], l: int) -> list[tuple[int, list[int]]]:
    """Deterministic placement for sweeps: l evenly spaced sites, ids dealt
    round-robin."""
    if l > n or l > len(ids):
        raise ConfigError(f"cannot place {l} clusters ({len(ids)} robots, {n} nodes)")
    sites = sorted({1 + (i * n) // l for i in range(l)})
    while len(sites) < l:  # collision fallback for tiny n
        sites.append(max(sites) + 1)
    groups = [sorted(ids[i::l]) for i in range(l)]
    return [(site, grp) for site, grp in zip(sites, groups)]


def build_setup(cfg: dict, g: graphs.PortGraph):
    """Resolve (protocol, placement) from a config."""
    ids = robot_ids(cfg)
    if len(ids) > g.node_count:
        raise ConfigError(f"{len(ids)} robots cannot disperse on {g.node_count} nodes")
    kind = cfg.get("protocol")
    placement_spec = cfg.get("placement", {})
    knowledge = cfg.get("knowledge", {}) or {}
    if kind == "rooted":
        root = placement_spec.get("root")
        if root is None or not 1 <= int(root) <= g.node_count:
            raise ConfigError("rooted placement needs a valid 'root' node")
        protocol = RootedDispersion(ids, g.max_degree())
        placement = {rid: int(root) for rid in ids}
        return protocol, placement
    if kind == "arbitrary":
        raw = placement_spec.get("clusters")
        if raw is None:
            raise ConfigError("arbitrary placement needs 'clusters'")
        clusters = []
        placement = {}
        seen_nodes = set()
        for entry in raw:
            node, members = int(entry["node"]), [int(r) for r in entry["robots"]]
            if node in seen_nodes:
                raise ConfigError("cluster nodes must be distinct")
            if not 1 <= node <= g.node_count:
                raise ConfigError(f"cluster node {node} not in graph")
            seen_nodes.add(node)
            clusters.append(members)
            for rid in members:
                if rid in placement:
                    raise ConfigError(f"robot {rid} in two clusters")
                placement[rid] = node
        if sorted(placement) != ids:
            raise ConfigError("clusters must cover exactly the declared robots")
        faults = _fault_count(cfg, ids)
        protocol = ArbitraryDispersion(
            clusters,
            g.edge_count,
            g.max_degree(),
            faults=faults,
            phase_len=knowledge.get("phase_len"),
            num_phases=knowledge.get("num_phases"),
        )
        return protocol, placement
    raise ConfigError("protocol must be 'rooted' or 'arbitrary'")


def _fault_count(cfg: dict, ids: list[int]) -> int:
    spec = cfg.get("faults", {}) or {}
    if "schedule" in spec:
        return len(spec["schedule"])
    if "random" in spec:
        return _random_fault_count(spec, ids)
    if "exhaustive" in spec:
        return int(spec["exhaustive"].get("f", 0))
    return 0


def _random_fault_count(spec: dict, ids: list[int]) -> int:
    f = int(spec["random"].get("f", 0))
    if f < 0:
        raise ConfigError("faults.random.f must not be negative")
    if f > len(ids):
        raise ConfigError("more faults than robots")
    return f


def build_schedule(cfg: dict, ids: list[int], budget: int) -> CrashSchedule:
    spec = cfg.get("faults", {}) or {}
    if "schedule" in spec:
        pairs = [(int(r), int(rnd)) for r, rnd in spec["schedule"]]
        for rid, _ in pairs:
            if rid not in ids:
                raise ConfigError(f"crash schedule names unknown robot {rid}")
        try:
            return CrashSchedule.from_pairs(pairs)
        except EngineError as exc:
            raise ConfigError(f"bad crash schedule: {exc}") from exc
    if "random" in spec:
        f = _random_fault_count(spec, ids)
        rng = Random(spec["random"].get("seed", 0))
        victims = rng.sample(ids, f)
        return CrashSchedule.from_pairs([(v, rng.randint(1, budget)) for v in victims])
    return CrashSchedule()


# -- monitors per run -------------------------------------------------------------


def run_monitors(result, protocol, g: graphs.PortGraph) -> list[str]:
    problems = list(
        oracle.check_bounds(result, protocol, protocol.k, g.max_degree()).violations
    )
    if isinstance(protocol, RootedDispersion):
        if oracle.one_mover_violations(result.world.trace):
            problems.append("one-mover violation")
        if oracle.loop_violations(result.world.trace):
            problems.append("loop detected")
    else:
        if oracle.counter_disagreements(result.world.trace):
            problems.append("counter disagreement")
        if oracle.cluster_count_regressions(result.world.trace, protocol.phase_len):
            problems.append("cluster count increased")
    return problems


# -- commands -----------------------------------------------------------------------


def apply_seed_override(cfg: dict, seed: int | None) -> dict:
    """--seed replaces every seeded choice recorded in the config."""
    if seed is None:
        return cfg
    cfg = dict(cfg)
    cfg["seed"] = seed
    faults = dict(cfg.get("faults") or {})
    if "random" in faults:
        faults["random"] = dict(faults["random"], seed=seed)
        cfg["faults"] = faults
    return cfg


def cmd_run(args) -> int:
    cfg = apply_seed_override(load_config(args.config), args.seed)
    g = build_graph(cfg.get("graph", {}))
    protocol, placement = build_setup(cfg, g)
    ids = sorted(placement)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    faults = cfg.get("faults", {}) or {}
    if "exhaustive" in faults:
        f = int(faults["exhaustive"].get("f", 0))
        horizon = faults["exhaustive"].get("horizon")
        report = oracle.enumerate_adversary(
            g,
            placement,
            lambda: build_setup(cfg, g)[0],
            f=f,
            horizon=horizon,
            per_run_check=lambda res, sched: run_monitors(res, protocol, g),
        )
        (out / "report.json").write_text(report.to_json() + "\n")
        print(report.to_json())
        return 0 if report.failures == 0 else 1

    schedule = build_schedule(cfg, ids, protocol.round_budget)
    with open(out / "trace.jsonl", "w", encoding="utf-8") as fh:
        result = run(g, placement, protocol, schedule, max_rounds=cfg.get("max_rounds"), trace_out=fh)
    summary = json.dumps(result.summary(), sort_keys=True)
    (out / "summary.json").write_text(summary + "\n")
    print(summary)
    problems = run_monitors(result, protocol, g)
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    return 0 if result.dispersed and not problems else 1


def cmd_replay(args) -> int:
    cfg = apply_seed_override(load_config(args.config), args.seed)
    g = build_graph(cfg.get("graph", {}))
    protocol, placement = build_setup(cfg, g)
    schedule = build_schedule(cfg, sorted(placement), protocol.round_budget)
    result = run(g, placement, protocol, schedule, max_rounds=cfg.get("max_rounds"))
    out = Path(args.out)
    stored_summary = (out / "summary.json").read_text()
    stored_trace = (out / "trace.jsonl").read_text()
    fresh_summary = json.dumps(result.summary(), sort_keys=True) + "\n"
    fresh_trace = "".join(event_line(e) + "\n" for e in result.world.trace)
    if stored_summary != fresh_summary:
        print("REPLAY MISMATCH: summary differs", file=sys.stderr)
        return 1
    if stored_trace != fresh_trace:
        print("REPLAY MISMATCH: trace differs", file=sys.stderr)
        return 1
    print("replay ok: " + fresh_summary.strip())
    return 0


def _sweep_point(task: dict) -> list:
    """One sweep cell; must stay importable for multiprocessing."""
    cfg = task["config"]
    try:
        g = build_graph(cfg["graph"])
        protocol, placement = build_setup(cfg, g)
        schedule = build_schedule(cfg, sorted(placement), protocol.round_budget)
        result = run(g, placement, protocol, schedule, max_rounds=cfg.get("max_rounds"))
        return [
            g.node_count,
            g.edge_count,
            g.max_degree(),
            protocol.k,
            task["f"],
            task["l"],
            cfg["protocol"],
            result.rounds_elapsed,
            result.dispersed,
            result.max_memory_bits,
            "",
        ]
    except Exception as exc:  # recorded per row, sweep continues
        return ["", "", "", "", task["f"], task["l"], cfg.get("protocol", ""), "", "", "", str(exc)]


SWEEP_HEADER = [
    "n", "m", "max_degree", "k", "f", "l", "protocol",
    "rounds", "dispersed", "max_memory_bits", "error",
]


def cmd_sweep(args) -> int:
    cfg = apply_seed_override(load_config(args.config), args.seed)
    axes = cfg.get("sweep", {})
    base_graph = cfg.get("graph", {})
    kind = cfg.get("protocol")
    if kind not in ("rooted", "arbitrary"):
        raise ConfigError("protocol must be 'rooted' or 'arbitrary'")
    ks = axes.get("k", [cfg.get("robots", {}).get("k")])
    fs = axes.get("f", [0])
    ls = axes.get("l", [1]) if kind == "arbitrary" else [1]
    seeds = axes.get("graph_seeds", [None])
    if seeds != [None] and base_graph.get("generator") != "random_connected":
        raise ConfigError("graph_seeds axis needs the random_connected generator")

    tasks = []
    for k, f, l, seed in itertools.product(ks, fs, ls, seeds):
        if k is None:
            raise ConfigError("sweep needs a k axis or robots.k")
        gspec = dict(base_graph)
        if seed is not None:
            gspec["seed"] = seed
        point = {
            "protocol": kind,
            "graph": gspec,
            "robots": {"k": int(k)},
            "faults": {"random": {"f": int(f), "seed": cfg.get("seed", 0)}} if f else {},
            "knowledge": cfg.get("knowledge"),
            "max_rounds": cfg.get("max_rounds"),
        }
        try:
            g = build_graph(gspec)
        except ConfigError as exc:
            tasks.append({"config": point, "f": f, "l": l, "error": str(exc)})
            continue
        if kind == "rooted":
            point["placement"] = {"root": 1}
        else:
            ids = list(range(1, int(k) + 1))
            try:
                clusters = default_clusters(g.node_count, ids, int(l))
            except ConfigError as exc:
                tasks.append({"config": point, "f": f, "l": l, "error": str(exc)})
                continue
            point["placement"] = {
                "clusters": [{"node": node, "robots": grp} for node, grp in clusters]
            }
        tasks.append({"config": point, "f": f, "l": l})

    def run_task(task):
        if "error" in task:
            return ["", "", "", "", task["f"], task["l"], kind, "", "", "", task["error"]]
        return _sweep_point(task)

    if args.jobs > 1:
        with multiprocessing.Pool(args.jobs) as pool:
            rows = pool.map(_sweep_point, [t for t in tasks if "error" not in t])
        it = iter(rows)
        rows = [run_task(t) if "error" in t else next(it) for t in tasks]
    else:
        rows = [run_task(t) for t in tasks]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out / 'results.csv'}")
    bad = [r for r in rows if r[-1]]
    return 1 if bad else 0


# -- verify suites ---------------------------------------------------------------------


def suite_rooted_faultfree() -> tuple[bool, dict]:
    failures = []
    runs = 0
    for name, g in oracle.standard_corpus():
        for k in oracle.k_choices(g.node_count):
            ids = list(range(1, k + 1))
            protocol = RootedDispersion(ids, g.max_degree())
            result = run(g, {i: 1 for i in ids}, protocol)
            runs += 1
            settled = {result.world.locations[r] for r in ids}
            ok = (
                result.dispersed
                and result.rounds_elapsed <= protocol.round_budget
                and settled == oracle.reference_first_k(g, 1, k)
                and not oracle.one_mover_violations(result.world.trace)
                and not oracle.loop_violations(result.world.trace)
            )
            if not ok:
                failures.append(f"{name} k={k}")
    return not failures, {"runs": runs, "failures": failures}


def suite_rooted_exhaustive() -> tuple[bool, dict]:
    tested = 0
    failures = []
    for name, g in oracle.standard_corpus(max_n=6):
        for k in oracle.k_choices(g.node_count):
            if k > 5:
                continue
            ids = list(range(1, k + 1))
            factory = lambda ids=ids, g=g: RootedDispersion(ids, g.max_degree())
            rank = factory().rank

            def check(result, schedule, rank=rank):
                problems = []
                if oracle.one_mover_violations(result.world.trace):
                    problems.append("one-mover")
                if oracle.loop_violations(result.world.trace):
                    problems.append("loop")
                if oracle.retreat_violations(result.world.trace, rank):
                    problems.append("retreat-overrun")
                return problems

            report = oracle.enumerate_adversary(
                g, {i: 1 for i in ids}, factory, f=1, per_run_check=check
            )
            tested += report.schedules_tested
            if report.failures:
                failures.append(f"{name} k={k}: {report.failure_examples[:1]}")
    return not failures, {"schedules": tested, "failures": failures}


def _arbitrary_setup(g, k, l, f, seed):
    ids = list(range(1, k + 1))
    clusters = default_clusters(g.node_count, ids, l)
    placement = {rid: node for node, grp in clusters for rid in grp}
    protocol = ArbitraryDispersion([grp for _, grp in clusters], g.edge_count, g.max_degree(), faults=f)
    rng = Random(seed)
    schedule = CrashSchedule()
    if f:
        victims = rng.sample(ids, f)
        schedule = CrashSchedule.from_pairs(
            [(v, rng.randint(1, protocol.round_budget)) for v in victims]
        )
    return protocol, placement, schedule


def suite_arbitrary_faultfree() -> tuple[bool, dict]:
    failures = []
    runs = 0
    for name, g in oracle.standard_corpus():
        n = g.node_count
        k = (n + 1) // 2
        for l in (1, 2, 3, 4):
            if k < l:
                continue
            protocol, placement, _ = _arbitrary_setup(g, k, l, 0, 0)
            result = run(g, placement, protocol)
            runs += 1
            ok = (
                result.dispersed
                and result.rounds_elapsed <= protocol.round_budget
                and not oracle.counter_disagreements(result.world.trace)
                and not oracle.cluster_count_regressions(result.world.trace, protocol.phase_len)
            )
            if not ok:
                failures.append(f"{name} k={k} l={l}")
    return not failures, {"runs": runs, "failures": failures}


def suite_arbitrary_exhaustive() -> tuple[bool, dict]:
    tested = 0
    failures = []
    for name, g in oracle.standard_corpus(max_n=6):
        n = g.node_count
        k = (n + 1) // 2
        for l in (1, 2):
            if k < l:
                continue
            ids = list(range(1, k + 1))
            clusters = default_clusters(n, ids, l)
            placement = {rid: node for node, grp in clusters for rid in grp}
            groups = [grp for _, grp in clusters]
            factory = lambda groups=groups, g=g: ArbitraryDispersion(
                groups, g.edge_count, g.max_degree(), faults=1
            )
            phase_len = factory().phase_len

            def check(result, schedule, phase_len=phase_len):
                problems = []
                if oracle.counter_disagreements(result.world.trace):
                    problems.append("counter disagreement")
                if oracle.cluster_count_regressions(result.world.trace, phase_len):
                    problems.append("cluster count increased")
                return problems

            report = oracle.enumerate_adversary(g, placement, factory, f=1, per_run_check=check)
            tested += report.schedules_tested
            if report.failures:
                failures.append(f"{name} l={l}: {report.failure_examples[:1]}")
    return not failures, {"schedules": tested, "failures": failures}


def suite_memory() -> tuple[bool, dict]:
    failures = []
    worst = 0
    for name, g in oracle.standard_corpus():
        delta = g.max_degree()
        for k in oracle.k_choices(g.node_count):
            ids = list(range(1, k + 1))
            protocol = RootedDispersion(ids, delta)
            result = run(g, {i: 1 for i in ids}, protocol)
            env = oracle.memory_envelope(k, delta)
            worst = max(worst, result.max_memory_bits)
            if result.max_memory_bits > env:
                failures.append(f"rooted {name} k={k}: {result.max_memory_bits} > {env}")
        k = (g.node_count + 1) // 2
        for l in (1, 2):
            if k < l:
                continue
            protocol, placement, _ = _arbitrary_setup(g, k, l, 0, 0)
            result = run(g, placement, protocol)
            env = oracle.memory_envelope(k, delta)
            if result.max_memory_bits > env:
                failures.append(f"arbitrary {name} k={k} l={l}: {result.max_memory_bits} > {env}")
    return not failures, {"failures": failures, "max_bits_seen": worst}


def determinism_configs() -> list[dict]:
    cfgs = []
    for n, k in ((3, 3), (6, 3), (8, 4), (12, 6)):
        cfgs.append(
            {
                "protocol": "rooted",
                "graph": {"generator": "ring", "n": n},
                "robots": {"k": k},
                "placement": {"root": 1},
                "faults": {"random": {"f": 1, "seed": n}},
            }
        )
    cfgs.append(
        {
            "protocol": "rooted",
            "graph": {"generator": "random_connected", "n": 10, "m": 15, "seed": 7},
            "robots": {"k": 10},
            "placement": {"root": 1},
            "faults": {},
        }
    )
    for l, f, seed in ((1, 0, 1), (2, 1, 2), (3, 2, 3)):
        n, k = 10, 5
        ids = list(range(1, k + 1))
        clusters = default_clusters(n, ids, l)
        cfgs.append(
            {
                "protocol": "arbitrary",
                "graph": {"generator": "random_connected", "n": n, "m": 14, "seed": seed},
                "robots": {"k": k},
                "placement": {"clusters": [{"node": v, "robots": grp} for v, grp in clusters]},
                "faults": {"random": {"f": f, "seed": seed}},
            }
        )
    for n in (7, 9):
        cfgs.append(
            {
                "protocol": "rooted",
                "graph": {"generator": "star", "n": n},
                "robots": {"k": n - 1},
                "placement": {"root": 2},
                "faults": {"random": {"f": 2, "seed": n}},
            }
        )
    return cfgs


def run_config_dict(cfg: dict):
    g = build_graph(cfg["graph"])
    protocol, placement = build_setup(cfg, g)
    schedule = build_schedule(cfg, sorted(placement), protocol.round_budget)
    return run(g, placement, protocol, schedule, max_rounds=cfg.get("max_rounds"))


def suite_determinism() -> tuple[bool, dict]:
    failures = []
    for i, cfg in enumerate(determinism_configs()):
        first = run_config_dict(cfg)
        second = run_config_dict(cfg)
        if first.trace_hash != second.trace_hash:
            failures.append(f"config {i}: trace hashes differ")
        if json.dumps(first.summary(), sort_keys=True) != json.dumps(second.summary(), sort_keys=True):
            failures.append(f"config {i}: summaries differ")
    return not failures, {"configs": i + 1, "failures": failures}


SUITES = {
    "rooted-faultfree": suite_rooted_faultfree,
    "rooted-exhaustive": suite_rooted_exhaustive,
    "arbitrary-faultfree": suite_arbitrary_faultfree,
    "arbitrary-exhaustive": suite_arbitrary_exhaustive,
    "memory": suite_memory,
    "determinism": suite_determinism,
}


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}", file=sys.stderr)
        return 2
    passed, details = SUITES[args.suite]()
    report = {"suite": args.suite, "passed": passed, **details}
    line = json.dumps(report, sort_keys=True)
    print(line)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(line + "\n")
    return 0 if passed else 1


# -- entry point ------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dispersim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one simulation from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep, emit CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_replay = sub.add_parser("replay", help="re-run a config and compare to stored outputs")
    p_replay.add_argument("--config", required=True)
    p_replay.add_argument("--out", default="out")
    p_replay.add_argument("--seed", type=int, default=None)
    p_replay.set_defaults(func=cmd_replay)

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
