"""Synchronous Communicate-Compute-Move round engine.

Each round: (1) scheduled crashes take effect, (2) every alive robot gets a
LocalView of its node, (3) the protocol's pure transition function maps
(state, view) to a new core, an action and optional writes to co-located
robots, (4) writes apply under deterministic arbitration, (5) actions apply
simultaneously.  Locality and anonymity are enforced structurally: a
LocalView carries a degree, the robot's own entry port and co-located robot
states -- never a node index.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from json.encoder import c_make_encoder, encode_basestring_ascii

from .graph import PortGraph


class EngineError(RuntimeError):
    pass


class InvalidMovePort(EngineError):
    pass


class WriteToNonCoLocated(EngineError):
    pass


# Fixed intra-round event order: (kind priority, robot id).
KIND_ORDER = {"crash": 0, "repair": 1, "settle": 2, "merge": 3, "reset": 4, "move": 5, "wait": 6}

STAY = "stay"
SETTLE = "settle"
MOVE = "move"


@dataclass(frozen=True)
class RobotState:
    """One robot's persistent state; the unit of memory accounting.

    Deliberately locationless -- positions live in WorldState, so protocol
    code can never observe a node identity.
    """

    id: int
    alive: bool
    settled: bool
    core: object


@dataclass(frozen=True)
class LocalView:
    degree: int
    entry_port: int  # 0 = did not move last round
    co_located: tuple[RobotState, ...]  # alive robots at this node, sorted by id


@dataclass(frozen=True)
class Write:
    target: int
    field: str
    value: object


@dataclass(frozen=True)
class Decision:
    """Result of one robot's Compute step."""

    core: object
    action: str = STAY
    port: int = 0
    writes: tuple[Write, ...] = ()
    events: tuple[tuple[str, dict], ...] = ()  # extra protocol events (repair/merge/reset)
    note: dict | None = None  # merged into this robot's action-event payload
    writer_priority: int = 0


@dataclass(frozen=True)
class CrashSchedule:
    """Adversary plan: robot id -> crash round (at most one entry per robot)."""

    entries: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_pairs(cls, pairs) -> "CrashSchedule":
        seen = set()
        norm = []
        for rid, rnd in pairs:
            if rid in seen:
                raise EngineError(f"robot {rid} scheduled to crash twice")
            if rnd < 1:
                raise EngineError("crash rounds start at 1")
            seen.add(rid)
            norm.append((int(rid), int(rnd)))
        return cls(tuple(sorted(norm)))

    def victims_at(self, rnd: int) -> list[int]:
        return sorted(rid for rid, r in self.entries if r == rnd)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class TraceEvent:
    round: int
    robot: int
    kind: str
    payload: dict | None = None


@dataclass
class WorldState:
    round: int
    states: dict[int, RobotState]
    locations: dict[int, int | None]
    entry_ports: dict[int, int]
    trace: list[TraceEvent] = field(default_factory=list)


@dataclass(frozen=True)
class SimResult:
    world: WorldState
    rounds_elapsed: int
    dispersed: bool
    trace_hash: str
    alive_count: int
    max_memory_bits: int

    def summary(self) -> dict:
        return {
            "rounds_elapsed": self.rounds_elapsed,
            "dispersed": self.dispersed,
            "alive_count": self.alive_count,
            "max_memory_bits": self.max_memory_bits,
            "trace_hash": self.trace_hash,
        }


def initial_world(graph: PortGraph, placement: dict[int, int], protocol) -> WorldState:
    ids = sorted(placement)
    if len(set(ids)) != len(ids):
        raise EngineError("robot ids must be unique")
    for rid, node in placement.items():
        if not 1 <= node <= graph.node_count:
            raise EngineError(f"robot {rid} placed on unknown node {node}")
    states = {rid: RobotState(rid, True, False, protocol.init_core(rid)) for rid in ids}
    locations = {rid: placement[rid] for rid in ids}
    return WorldState(0, states, locations, {rid: 0 for rid in ids})


def step(world: WorldState, graph: PortGraph, protocol, schedule: CrashSchedule) -> tuple[WorldState, list[TraceEvent]]:
    """Advance one round: the next world (its trace empty) and the round's events.  ``world`` is unchanged."""
    rnd = world.round + 1
    states = dict(world.states)
    locations = dict(world.locations)
    entry_ports = dict(world.entry_ports)
    events: list[TraceEvent] = []

    # 1. crashes at the start of the round: the adversarially strongest choice
    for rid in schedule.victims_at(rnd):
        st = states.get(rid)
        if st is not None and st.alive:
            events.append(TraceEvent(rnd, rid, "crash", {"node": locations[rid]}))
            states[rid] = RobotState(st.id, False, st.settled, st.core)
            locations[rid] = None
            entry_ports[rid] = 0

    # 2. local views: every robot at a node shares one co-located tuple
    alive = [rid for rid in sorted(states) if states[rid].alive]
    by_node: dict[int, list[RobotState]] = {}
    for rid in alive:
        by_node.setdefault(locations[rid], []).append(states[rid])
    co_located = {node: tuple(group) for node, group in by_node.items()}

    # 3. transitions (pure; evaluation order is irrelevant to outcomes)
    transition = protocol.transition
    degree = graph.degree
    decisions: dict[int, Decision] = {}
    for rid in alive:
        node = locations[rid]
        decisions[rid] = transition(states[rid], LocalView(degree(node), entry_ports[rid], co_located[node]))

    # 4. self-updates first, then external writes on top (arbitrated)
    for rid, dec in decisions.items():
        st = states[rid]
        if st.settled and dec.action == MOVE:
            raise EngineError(f"settled robot {rid} attempted to move")
        states[rid] = RobotState(st.id, st.alive, st.settled or dec.action == SETTLE, dec.core)

    contested: dict[tuple[int, str], list[tuple[int, int, object]]] = {}
    for rid, dec in decisions.items():
        if not dec.writes:
            continue
        here = {s.id for s in co_located[locations[rid]]}
        for w in dec.writes:
            if w.target not in here:
                raise WriteToNonCoLocated(f"robot {rid} wrote to non-co-located robot {w.target}")
            contested.setdefault((w.target, w.field), []).append((dec.writer_priority, rid, w.value))
    for (target, fname), writers in contested.items():
        _, _, value = max(writers, key=lambda t: (t[0], t[1]))
        st = states[target]
        states[target] = RobotState(st.id, st.alive, st.settled, replace(st.core, **{fname: value}))

    # 5. simultaneous actions
    for rid in alive:
        dec = decisions[rid]
        node = locations[rid]
        payload = {"node": node, "entry": entry_ports[rid]}
        if dec.note:
            payload.update(dec.note)
        for kind, extra in dec.events:
            events.append(TraceEvent(rnd, rid, kind, {"node": node, **extra}))
        if dec.action == MOVE:
            if not 1 <= dec.port <= degree(node):
                raise InvalidMovePort(f"robot {rid} chose port {dec.port} at a degree-{degree(node)} node")
            dest, q = graph.neighbor(node, dec.port)
            locations[rid] = dest
            entry_ports[rid] = q
            payload["port"] = dec.port
            events.append(TraceEvent(rnd, rid, "move", payload))
        else:
            entry_ports[rid] = 0
            events.append(TraceEvent(rnd, rid, "settle" if dec.action == SETTLE else "wait", payload))

    events.sort(key=lambda e: (KIND_ORDER[e.kind], e.robot))
    return WorldState(rnd, states, locations, entry_ports), events


def is_dispersed(world: WorldState, graph: PortGraph) -> bool:
    """True iff every node hosts at most one alive robot and all alive robots settled."""
    occupied = set()
    for rid, st in world.states.items():
        if not st.alive:
            continue
        if not st.settled:
            return False
        node = world.locations[rid]
        if node in occupied:
            return False
        occupied.add(node)
    return True


# json.dumps(obj, sort_keys=True, separators=(",", ":")) as one C encoder, built once, not per call
_ENCODE = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None, ":", ",", True, False, True)


def event_line(event: TraceEvent) -> str:
    """One canonical JSON object: sorted keys, no spaces.  The outer object's
    four keys are written directly, in their sorted order."""
    return (
        f'{{"kind":{encode_basestring_ascii(event.kind)},"payload":{"".join(_ENCODE(event.payload, 0))},'
        f'"robot":{event.robot:d},"round":{event.round:d}}}'
    )


def trace_hash(trace: list[TraceEvent], out: list[str] | None = None, sha=None) -> str:
    """SHA-256 of the trace's JSON lines.  Each line is also appended to
    ``out`` when one is given, so a run's trace file is encoded only once;
    ``sha`` continues a running hash, so a streamed trace hashes chunk by
    chunk to the digest of the whole."""
    h = hashlib.sha256() if sha is None else sha
    for event in trace:
        line = event_line(event) + "\n"
        h.update(line.encode())
        if out is not None:
            out.append(line)
    return h.hexdigest()


def run(
    graph: PortGraph,
    placement: dict[int, int],
    protocol,
    schedule: CrashSchedule | None = None,
    max_rounds: int | None = None,
    initial: WorldState | None = None,
    trace_out=None,
) -> SimResult:
    """Drive rounds until no unsettled robot remains or the budget expires.

    Each chunk of events (the initial world's kept events, then one per
    round) is hashed into one running digest and handed to one sink: a list
    that the result's ``world`` carries as ``trace`` or, when given,
    ``trace_out(events, lines)``, which also gets the chunk's JSON lines and
    leaves ``world.trace`` empty, so memory does not grow with the run.
    ``initial`` is never changed, so one snapshot can seed many runs.

    The early exit cannot change outcomes: once every alive robot is settled
    the configuration is a fixed point of the protocols.
    """
    schedule = schedule or CrashSchedule()
    budget = protocol.round_budget if max_rounds is None else max_rounds
    world = initial if initial is not None else initial_world(graph, placement, protocol)
    kept: list[TraceEvent] = []
    sink = trace_out or (lambda events, lines: kept.extend(events))
    sha = hashlib.sha256()
    max_bits = max((protocol.memory_bits(st) for st in world.states.values() if st.alive), default=0)
    events = world.trace
    done = False
    while True:
        lines = None if trace_out is None else []
        digest = trace_hash(events, lines, sha)
        sink(events, lines)
        if done or world.round >= budget:
            break
        world, events = step(world, graph, protocol, schedule)
        alive = [st for st in world.states.values() if st.alive]
        max_bits = max(max_bits, max(map(protocol.memory_bits, alive), default=0))
        done = all(st.settled for st in alive)
    return SimResult(
        world=replace(world, trace=kept),
        rounds_elapsed=world.round,
        dispersed=is_dispersed(world, graph),
        trace_hash=digest,
        alive_count=sum(1 for st in world.states.values() if st.alive),
        max_memory_bits=max_bits,
    )
