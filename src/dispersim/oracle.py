"""Independent ground truth for simulations.

No check here reuses protocol code paths: the reference DFS is a plain
whole-graph traversal, bound checks are arithmetic on run summaries, and the
monitors are pure functions of traces, so every check can replay offline.
The exhaustive adversary enumerates complete crash-schedule spaces on small
instances.  The acceptance criteria run the protocols over fixed corpora and
judge every run with these checks; each is defined once, in ``CRITERIA``,
for the ``dispersim verify`` suites and the acceptance tests alike.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from math import ceil, comb, log2
from random import Random

from . import graph as graphs
from .arbitrary import ArbitraryDispersion
from .engine import CrashSchedule, SimResult, TraceEvent, run
from .rooted import MOVER_MODES, RootedDispersion


class OracleError(RuntimeError):
    pass


class EnumerationTooLarge(OracleError):
    pass


# -- reference DFS -------------------------------------------------------------


def reference_dfs_order(g: graphs.PortGraph, root: int) -> list[int]:
    """First-visit order of an ascending-port whole-graph DFS from root."""
    order = [root]
    visited = {root}
    stack = [(root, 0, 1)]  # node, entry port to skip, next port to try
    while stack:
        v, skip, p = stack.pop()
        deg = g.degree(v)
        while p <= deg:
            if p == skip:
                p += 1
                continue
            u, q = g.neighbor(v, p)
            p += 1
            if u not in visited:
                visited.add(u)
                order.append(u)
                stack.append((v, skip, p))
                stack.append((u, q, 1))
                break
    return order


def reference_first_k(g: graphs.PortGraph, root: int, k: int) -> set[int]:
    """The first k distinct nodes an ascending-port DFS from root discovers."""
    if k > g.node_count:
        raise OracleError("k exceeds node count")
    return set(reference_dfs_order(g, root)[:k])


# -- bounds ---------------------------------------------------------------------


def memory_envelope(k: int, delta: int) -> int:
    """Per-robot bit budget: our constant for the O(log(k+delta)) claim."""
    return 4 * (ceil(log2(k + 1)) + ceil(log2(delta + 2))) + 16


def check_bounds(result: SimResult, protocol, g: graphs.PortGraph) -> list[str]:
    """The run's violations of the round budget, the memory envelope and
    dispersal."""
    violations = []
    if result.rounds_elapsed > protocol.round_budget:
        violations.append(
            f"rounds {result.rounds_elapsed} exceed budget {protocol.round_budget}"
        )
    env = memory_envelope(protocol.k, g.max_degree())
    if result.max_memory_bits > env:
        violations.append(f"memory {result.max_memory_bits} exceeds envelope {env}")
    if not result.dispersed:
        violations.append("run did not disperse")
    return violations


# -- trace monitors ---------------------------------------------------------------
#
# Each monitor is a fold: ``feed(events)`` takes the trace in order, one chunk
# of whole rounds at a time, and ``found`` lists the violations seen so far.
# Its state is per robot or per phase, never per event, so a streamed run is
# checked in memory that does not grow with its length.  The list functions
# feed a whole kept trace as one chunk.

ACTION_KINDS = ("move", "wait", "settle")


class OneMoverFold:
    """Rounds of a rooted trace with more than one robot off base."""

    def __init__(self):
        self.found: list[int] = []

    def feed(self, events):
        movers: dict[int, set[int]] = {}
        for e in events:
            if e.kind in ACTION_KINDS and e.payload and e.payload.get("mode") in MOVER_MODES:
                movers.setdefault(e.round, set()).add(e.robot)
        self.found += sorted(rnd for rnd, who in movers.items() if len(who) > 1)
        return self


class LoopFold:
    """(robot, round) pairs where an explorer revisits an identical
    (node, entry port, mode, settled-pointer snapshot) configuration within
    one epoch -- the loop-freedom check."""

    def __init__(self):
        self.seen: dict[int, set] = {}
        self.found: list[tuple[int, int]] = []

    def feed(self, events):
        for e in events:
            if e.kind != "move" or not e.payload:
                continue
            p = e.payload
            if p.get("rsr") == 1:
                self.seen[e.robot] = set()
            if p.get("mode") not in MOVER_MODES or "at" not in p:
                continue
            snap = p["at"]
            key = (
                p["node"],
                p["entry"],
                p["mode"],
                snap["parent"],
                snap["cdr"],
                snap["used"],
                snap["done"],
            )
            bucket = self.seen.setdefault(e.robot, set())
            if key in bucket:
                self.found.append((e.robot, e.round))
            bucket.add(key)
        return self


class RetreatFold:
    """(robot, round) of retreat moves later than 3i rounds after robot i's
    release; retreating robots must be home (or settled) by then."""

    def __init__(self, rank: dict[int, int]):
        self.rank = rank
        self.found: list[tuple[int, int]] = []

    def feed(self, events):
        self.found += [
            (e.robot, e.round)
            for e in events
            if e.kind == "move"
            and e.payload
            and e.payload.get("mode") == "retreat"
            and e.payload.get("rsr", 0) > 3 * self.rank[e.robot]
        ]
        return self


class CounterFold:
    """Rounds of an arbitrary trace where alive robots report unequal counters."""

    def __init__(self):
        self.found: list[int] = []

    def feed(self, events):
        """Each round's first counter is kept; a later unequal one flags the round."""
        first: dict[int, int] = {}
        flagged: set[int] = set()
        for e in events:
            if e.kind in ACTION_KINDS and e.payload and "counter" in e.payload:
                counter = e.payload["counter"]
                seen = first.setdefault(e.round, counter)
                if seen != counter:
                    flagged.add(e.round)
        self.found += sorted(flagged)
        return self


class ClusterCountFold:
    """Phase indices whose opening cluster count exceeds the previous phase's.

    The cluster count at a phase start is the number of distinct cluster ids
    among robots that are alive and unsettled in that round.  A robot emits
    one action event per round, so one that has emitted ``settle`` in an
    earlier chunk or earlier in this one settled before the round at hand."""

    def __init__(self, phase_len: int):
        self.phase_len = phase_len
        self.settled: set[int] = set()
        self.counts: dict[int, set] = {}  # phase -> cluster ids at its start

    def feed(self, events):
        for e in events:
            if e.kind not in ACTION_KINDS:
                continue
            if e.kind == "settle":
                self.settled.add(e.robot)
            elif e.robot in self.settled:
                continue
            if e.payload and "cid" in e.payload and (e.round - 1) % self.phase_len == 0:
                self.counts.setdefault((e.round - 1) // self.phase_len, set()).add(e.payload["cid"])
        return self

    @property
    def found(self) -> list[int]:
        sizes = [(phase, len(self.counts[phase])) for phase in sorted(self.counts)]
        return [phase for (_, before), (phase, size) in zip(sizes, sizes[1:]) if size > before]


def one_mover_violations(trace: list[TraceEvent]) -> list[int]:
    return OneMoverFold().feed(trace).found


def loop_violations(trace: list[TraceEvent]) -> list[tuple[int, int]]:
    return LoopFold().feed(trace).found


def retreat_violations(trace: list[TraceEvent], rank: dict[int, int]) -> list[tuple[int, int]]:
    return sorted(RetreatFold(rank).feed(trace).found)


def counter_disagreements(trace: list[TraceEvent]) -> list[int]:
    return CounterFold().feed(trace).found


def cluster_count_regressions(trace: list[TraceEvent], phase_len: int) -> list[int]:
    return ClusterCountFold(phase_len).feed(trace).found


def trace_monitors(protocol) -> dict[str, object]:
    """Fresh folds of every trace monitor that applies to the protocol, keyed
    by the problem each reports: the one registry of trace monitors."""
    if isinstance(protocol, RootedDispersion):
        return {"one-mover violation": OneMoverFold(), "loop detected": LoopFold(),
                "retreat-overrun": RetreatFold(protocol.rank)}
    return {"counter disagreement": CounterFold(), "cluster count increased": ClusterCountFold(protocol.phase_len)}


def run_monitors(result: SimResult, protocol, g: graphs.PortGraph, monitors=None) -> list[str]:
    """The per-run check: everything a single run must satisfy, the bounds
    and dispersal of ``check_bounds`` and then the ``trace_monitors``.
    ``monitors`` are those folds already fed a streamed run's trace; without
    them the result's kept trace is fed to fresh ones."""
    if monitors is None:
        monitors = {problem: fold.feed(result.world.trace) for problem, fold in trace_monitors(protocol).items()}
    return check_bounds(result, protocol, g) + [problem for problem, fold in monitors.items() if fold.found]


# -- exhaustive adversary -----------------------------------------------------------


@dataclass
class AdversaryReport:
    schedules_tested: int
    failures: int
    max_rounds: int
    max_memory_bits: int
    worst_trace_hash: str
    failure_examples: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schedules_tested": self.schedules_tested,
                "failures": self.failures,
                "max_rounds": self.max_rounds,
                "max_memory_bits": self.max_memory_bits,
                "worst_trace_hash": self.worst_trace_hash,
            },
            sort_keys=True,
        )


def enumerate_schedules(robot_ids, f: int, horizon: int):
    """Every assignment of f distinct victims to crash rounds in 1..horizon."""
    for victims in itertools.combinations(sorted(robot_ids), f):
        for rounds in itertools.product(range(1, horizon + 1), repeat=f):
            yield CrashSchedule.from_pairs(zip(victims, rounds))


def enumerate_adversary(
    g: graphs.PortGraph,
    placement: dict[int, int],
    protocol_factory,
    f: int,
    horizon: int | None = None,
    cap: int = 10**6,
    per_run_check=None,
) -> AdversaryReport:
    """Run every (victims, rounds) crash schedule and aggregate the worst case.

    Each run is judged by ``check_bounds``; ``per_run_check(result,
    schedule) -> list[str]`` may add extra failure conditions (monitors),
    and a problem it repeats is listed once.  Aggregation is
    order-insensitive.
    """
    ids = sorted(placement)
    k = len(ids)
    probe = protocol_factory()
    horizon = horizon if horizon is not None else probe.round_budget
    total = comb(k, f) * horizon**f
    if total > cap:
        raise EnumerationTooLarge(f"{total} schedules exceed cap {cap}")

    failures = 0
    max_rounds = 0
    max_bits = 0
    worst_hash = ""
    examples: list[dict] = []
    tested = 0
    for schedule in enumerate_schedules(ids, f, horizon):
        result = run(g, placement, protocol_factory(), schedule)
        tested += 1
        problems = check_bounds(result, probe, g)
        if per_run_check is not None:
            problems += [p for p in per_run_check(result, schedule) if p not in problems]
        if problems:
            failures += 1
            if len(examples) < 5:
                examples.append({"schedule": list(schedule.entries), "problems": problems})
        if result.rounds_elapsed > max_rounds:
            max_rounds = result.rounds_elapsed
            worst_hash = result.trace_hash
        max_bits = max(max_bits, result.max_memory_bits)
    return AdversaryReport(tested, failures, max_rounds, max_bits, worst_hash, examples)


# -- graph corpus --------------------------------------------------------------------


RANDOM_GRAPHS = 50  # seeded random graphs in the standard corpus


def standard_corpus(max_n: int | None = None) -> list[tuple[str, graphs.PortGraph]]:
    """The fixed suite: rings 3..12, paths 2..12, K4/K5, stars 4..8 and seeded
    random connected graphs with n <= 20, m <= 40.  Only graphs with at most
    ``max_n`` nodes are built."""
    specs = [(f"ring{n}", n, graphs.ring, (n,)) for n in range(3, 13)]
    specs += [(f"path{n}", n, graphs.path, (n,)) for n in range(2, 13)]
    specs += [("K4", 4, graphs.complete, (4,)), ("K5", 5, graphs.complete, (5,))]
    specs += [(f"star{n}", n, graphs.star, (n,)) for n in range(4, 9)]
    for seed in range(RANDOM_GRAPHS):
        n = 4 + seed % 17  # 4..20
        max_m = min(40, n * (n - 1) // 2)
        m = (n - 1) + seed % (max_m - (n - 1) + 1) if max_m > n - 1 else n - 1
        specs.append((f"rand{n}m{m}s{seed}", n, graphs.random_connected, (n, m, seed)))
    return [(name, make(*params)) for name, n, make, params in specs if max_n is None or n <= max_n]


def k_choices(n: int) -> list[int]:
    return sorted({1, (n + 1) // 2, n})


def default_clusters(n: int, ids: list[int], l: int) -> list[tuple[int, list[int]]]:
    """Deterministic placement for sweeps: l evenly spaced sites, ids dealt
    round-robin."""
    if l > n or l > len(ids):
        raise OracleError(f"cannot place {l} clusters ({len(ids)} robots, {n} nodes)")
    sites = sorted({1 + (i * n) // l for i in range(l)})
    while len(sites) < l:  # collision fallback for tiny n
        sites.append(max(sites) + 1)
    groups = [sorted(ids[i::l]) for i in range(l)]
    return [(site, grp) for site, grp in zip(sites, groups)]


def random_schedule(rng: Random, ids, f: int, last: int, first: int = 1) -> CrashSchedule:
    """f distinct victims, each crashing at a round drawn from first..last."""
    victims = rng.sample(ids, f)
    return CrashSchedule.from_pairs([(v, rng.randint(first, last)) for v in victims])


# -- acceptance criteria ------------------------------------------------------------
#
# Each criterion takes a MemoryAudit, which sees every run it executes, and
# returns (passed, report); the report carries a "failures" list.


class MemoryAudit:
    """Criterion 6's tally of audited runs: how many, the most bits any robot
    used, and the runs over the memory envelope."""

    def __init__(self):
        self.runs = 0
        self.worst = 0
        self.over: list[str] = []

    def record(self, label: str, result: SimResult, protocol, g: graphs.PortGraph) -> None:
        env = memory_envelope(protocol.k, g.max_degree())
        self.runs += 1
        self.worst = max(self.worst, result.max_memory_bits)
        if result.max_memory_bits > env:
            self.over.append(f"{label}: {result.max_memory_bits} > {env}")


def _problems(audit: MemoryAudit, label: str, result: SimResult, protocol, g) -> list[str]:
    """The per-run check every criterion shares: the run is audited, then
    judged by run_monitors."""
    audit.record(label, result, protocol, g)
    return run_monitors(result, protocol, g)


def _exhaustive(audit: MemoryAudit, label: str, g, placement, factory) -> tuple[int, list[str]]:
    """Every single-crash schedule of one instance: (schedules, failures)."""
    probe = factory()
    check = lambda result, schedule: _problems(audit, label, result, probe, g)
    report = enumerate_adversary(g, placement, factory, f=1, per_run_check=check)
    return report.schedules_tested, [f"{label}: {report.failure_examples[:1]}"] if report.failures else []


def _clustered(groups, sites) -> dict[int, int]:
    return {rid: site for site, grp in zip(sites, groups) for rid in grp}


def _default_clustered(g, k: int, l: int, f: int):
    """Robots 1..k in l default clusters: (protocol factory, placement)."""
    clusters = default_clusters(g.node_count, list(range(1, k + 1)), l)
    groups = [grp for _, grp in clusters]
    factory = lambda: ArbitraryDispersion(groups, g.edge_count, g.max_degree(), faults=f)
    return factory, _clustered(groups, [site for site, _ in clusters])


def rooted_faultfree(audit: MemoryAudit) -> dict:
    """Criterion 1: every corpus graph, k in k_choices, from node 1, settles
    exactly the reference DFS's first k nodes within 7k^2 rounds."""
    failures = []
    runs = 0
    for name, g in standard_corpus():
        for k in k_choices(g.node_count):
            ids = list(range(1, k + 1))
            protocol = RootedDispersion(ids, g.max_degree())
            result = run(g, {i: 1 for i in ids}, protocol)
            runs += 1
            problems = _problems(audit, f"rooted {name} k={k}", result, protocol, g)
            if {result.world.locations[r] for r in ids} != reference_first_k(g, 1, k):
                problems.append("settled set differs from reference DFS")
            if problems:
                failures.append(f"{name} k={k}: {problems}")
    return {"runs": runs, "failures": failures}


def rooted_exhaustive(audit: MemoryAudit) -> dict:
    """Criterion 2: every single-crash schedule on the n <= 6 corpus, k <= 5."""
    failures = []
    tested = 0
    for name, g in standard_corpus(max_n=6):
        for k in k_choices(g.node_count):
            if k > 5:
                continue
            ids = list(range(1, k + 1))
            factory = lambda ids=ids, delta=g.max_degree(): RootedDispersion(ids, delta)
            count, found = _exhaustive(audit, f"{name} k={k}", g, {i: 1 for i in ids}, factory)
            tested += count
            failures += found
    return {"schedules": tested, "failures": failures}


def rooted_multicrash(audit: MemoryAudit) -> dict:
    """Criterion 3: 200 seeded rooted trials with 1..k-1 random crashes; at
    least one of them must need a pointer repair."""
    rng = Random(42)
    corpus = standard_corpus()
    failures = []
    repair_trials = 0
    for trial in range(200):
        name, g = corpus[rng.randrange(len(corpus))]
        k = rng.randint(2, min(g.node_count, 20))
        ids = list(range(1, k + 1))
        protocol = RootedDispersion(ids, g.max_degree())
        f = rng.randint(1, k - 1)
        schedule = random_schedule(rng, ids, f, protocol.round_budget)
        result = run(g, {i: 1 for i in ids}, protocol, schedule)
        # No trace monitors here: in trial 58 (rand14m40s27, k=14) robot 13 loops
        # and overruns its retreat from round 245, though the run disperses in time.
        audit.record(f"trial {trial}", result, protocol, g)
        problems = check_bounds(result, protocol, g)
        if problems:
            failures.append(f"trial {trial} ({name}, k={k}, f={f}): {problems}")
        if any(e.kind == "repair" for e in result.world.trace):
            repair_trials += 1
    if not repair_trials:
        failures.append("no trial needed a repair")
    return {"trials": 200, "repair_trials": repair_trials, "failures": failures}


def arbitrary_envelope(audit: MemoryAudit) -> dict:
    """Criterion 4: 50 clustered runs per (l, f), l in 1..4, f in 0..2, each
    within the (l+f+1)*min(m, k*delta, k^2) envelope."""
    corpus = [c for c in standard_corpus() if c[1].node_count >= 4]
    failures = []
    runs = 0
    for l in (1, 2, 3, 4):
        for f in (0, 1, 2):
            rng = Random(1000 * l + f)
            done = 0
            gi = 0
            while done < 50:
                name, g = corpus[gi % len(corpus)]
                gi += 1
                k = (g.node_count + 1) // 2
                if k < l or f >= k:
                    continue
                done += 1
                runs += 1
                factory, placement = _default_clustered(g, k, l, f)
                protocol = factory()
                schedule = random_schedule(rng, list(range(1, k + 1)), f, protocol.round_budget)
                result = run(g, placement, protocol, schedule)
                problems = _problems(audit, f"{name} l={l} f={f}", result, protocol, g)
                if problems:
                    failures.append(f"{name} k={k} l={l} f={f}: {problems}")
    return {"runs": runs, "failures": failures}


def phase_isolation(audit: MemoryAudit) -> dict:
    """Criterion 5: with every crash after phase 0, the top-priority cluster
    settles completely within phase 0."""
    rng = Random(11)
    corpus = [c for c in standard_corpus() if c[1].node_count >= 4]
    failures = []
    count = 0
    while count < 20:
        name, g = corpus[rng.randrange(len(corpus))]
        n = g.node_count
        k = (n + 1) // 2
        l = rng.choice((2, 3))
        if k < l:
            continue
        count += 1
        ids = list(range(1, k + 1))
        groups = [sorted(ids[i::l]) for i in range(l)]
        placement = _clustered(groups, rng.sample(range(1, n + 1), l))
        f = rng.randint(1, min(2, k - 1))
        protocol = ArbitraryDispersion(groups, g.edge_count, g.max_degree(), faults=f)
        schedule = random_schedule(rng, ids, f, protocol.round_budget, first=protocol.phase_len + 1)
        result = run(g, placement, protocol, schedule, max_rounds=protocol.phase_len)
        # the run stops at the end of phase 0 on purpose, so it need not disperse
        problems = [p for p in _problems(audit, name, result, protocol, g) if p != "run did not disperse"]
        unsettled = [r for r in max(groups, key=max) if not result.world.states[r].settled]
        if unsettled:
            problems.append(f"top cluster robots {unsettled} unsettled")
        if problems:
            failures.append(f"{name} k={k} l={l}: {problems}")
    return {"configs": count, "failures": failures}


def k_only_fallback(audit: MemoryAudit) -> dict:
    """Criterion 8: knowing only k (phases of k^2 rounds, k+1 of them), fault
    free, at random sites on the n <= 12 corpus."""
    rng = Random(7)
    failures = []
    runs = 0
    for name, g in standard_corpus(max_n=12):
        n = g.node_count
        k = (n + 1) // 2
        for l in (1, 2):
            if k < l:
                continue
            runs += 1
            ids = list(range(1, k + 1))
            groups = [sorted(ids[i::l]) for i in range(l)]
            placement = _clustered(groups, rng.sample(range(1, n + 1), l))
            protocol = ArbitraryDispersion(
                groups, g.edge_count, g.max_degree(), faults=0, phase_len=k * k, num_phases=k + 1
            )
            result = run(g, placement, protocol)
            problems = _problems(audit, f"{name} l={l}", result, protocol, g)
            if problems:
                failures.append(f"{name} k={k} l={l}: {problems}")
    return {"runs": runs, "failures": failures}


def arbitrary_faultfree(audit: MemoryAudit) -> dict:
    """Every corpus graph, k = ceil(n/2) in l = 1..4 evenly spaced clusters."""
    failures = []
    runs = 0
    for name, g in standard_corpus():
        k = (g.node_count + 1) // 2
        for l in (1, 2, 3, 4):
            if k < l:
                continue
            factory, placement = _default_clustered(g, k, l, 0)
            protocol = factory()
            result = run(g, placement, protocol)
            runs += 1
            problems = _problems(audit, f"arbitrary {name} l={l}", result, protocol, g)
            if problems:
                failures.append(f"{name} k={k} l={l}: {problems}")
    return {"runs": runs, "failures": failures}


def arbitrary_exhaustive(audit: MemoryAudit) -> dict:
    """Every single-crash schedule on the n <= 6 corpus, l = 1 and 2."""
    failures = []
    tested = 0
    for name, g in standard_corpus(max_n=6):
        k = (g.node_count + 1) // 2
        for l in (1, 2):
            if k < l:
                continue
            factory, placement = _default_clustered(g, k, l, 1)
            count, found = _exhaustive(audit, f"{name} l={l}", g, placement, factory)
            tested += count
            failures += found
    return {"schedules": tested, "failures": failures}


def memory(audit: MemoryAudit) -> dict:
    """The memory envelope over the rooted and arbitrary fault-free runs."""
    failures = rooted_faultfree(audit)["failures"] + arbitrary_faultfree(audit)["failures"]
    return {"failures": failures, "max_bits_seen": audit.worst}


def determinism_configs() -> list[dict]:
    """Criterion 7's configs: rooted and clustered, with and without crashes."""
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


def determinism(audit: MemoryAudit) -> dict:
    """Criterion 7: every determinism config run twice gives the same trace
    hash and summary."""
    from .cli import run_config_dict  # cli imports this module

    failures = []
    configs = determinism_configs()
    for i, cfg in enumerate(configs):
        first, second = run_config_dict(cfg), run_config_dict(cfg)
        if first.trace_hash != second.trace_hash:
            failures.append(f"config {i}: trace hashes differ")
        if json.dumps(first.summary(), sort_keys=True) != json.dumps(second.summary(), sort_keys=True):
            failures.append(f"config {i}: summaries differ")
    return {"configs": len(configs), "failures": failures}


# name -> (criterion, wall-clock budget in seconds or None)
_REGISTRY = {
    "rooted-faultfree": (rooted_faultfree, 60),
    "rooted-exhaustive": (rooted_exhaustive, 600),
    "rooted-multicrash": (rooted_multicrash, None),
    "arbitrary-envelope": (arbitrary_envelope, 300),
    "phase-isolation": (phase_isolation, None),
    "arbitrary-faultfree": (arbitrary_faultfree, None),
    "arbitrary-exhaustive": (arbitrary_exhaustive, None),
    "k-only-fallback": (k_only_fallback, None),
    "memory": (memory, None),
    "determinism": (determinism, None),
}
CRITERIA = sorted(_REGISTRY)


def check_criterion(name: str, audit: MemoryAudit | None = None) -> tuple[bool, dict]:
    """Run one registered criterion: (passed, report).  A criterion with a
    budget fails when it takes longer than that."""
    criterion, budget = _REGISTRY[name]
    started = time.monotonic()
    report = criterion(audit if audit is not None else MemoryAudit())
    elapsed = time.monotonic() - started
    if budget is not None and elapsed > budget:
        report["failures"].append(f"took {elapsed:.0f}s, budget {budget}s")
    return not report["failures"], report
