"""Synchronous Communicate-Compute-Move round engine.

Each round: (1) scheduled crashes take effect; (2) one pass over the alive
robots, node by node: each robot gets a LocalView of its node, the
protocol's pure transition function maps (state, view) to a new core, an
action and optional writes to co-located robots, and the core, the events
and the move take effect at once; (3) the writes apply under deterministic
arbitration, on top of the new cores.  Every view is built from the states
at the start of the round, so the pass is the simultaneous round of the
model.  Locality and anonymity are enforced structurally: a LocalView
carries a degree, the robot's own entry port and co-located robot states --
never a node index.

Idle lane: a protocol may define ``idle(state) -> (core, note) | None``.
``step`` offers it each alive settled robot, with that robot's own state
only, before building the robot's view.  An answer is a STAY with that core
and note: the robot waits, without a view, a transition or a Decision.
``None`` sends the robot through ``transition``, which must give the same
round for every view wherever ``idle`` answers.  One note object may answer
for several robots, so a note must not change once returned; the lane
writes the trace lines of a round's waits with one note from one template
(``_wait_template``), and ``trace_hash`` takes them from ``RoundEvents``.
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
    writes: tuple[Write, ...] = ()  # at most one per (target, field)
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


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One trace line; slotted, so a kept event is one allocation besides its payload."""

    round: int
    robot: int
    kind: str
    payload: dict | None = None


class RoundEvents(list):
    """One round's events from ``step``, with the lines its lane robots'
    ``wait`` events already have: ``lines`` maps robot id -> line.  A robot
    that takes the lane has no other event in its round."""

    __slots__ = ("lines",)


_new_object = object.__new__


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
    """Advance one round: the next world (its trace empty) and the round's events.  ``world`` is unchanged.

    Crashes first; then one pass over the alive robots, node by node (nodes
    in order of their lowest robot id, robots in id order), in which each
    robot computes from its node's start-of-round states and its new core,
    its events and its move take effect at once; then the collected writes."""
    rnd = world.round + 1
    states = dict(world.states)
    locations = dict(world.locations)
    entry_ports = dict(world.entry_ports)
    events: list[TraceEvent] = []

    # crashes at the start of the round: the adversarially strongest choice
    for rid in schedule.victims_at(rnd):
        st = states.get(rid)
        if st is not None and st.alive:
            events.append(TraceEvent(rnd, rid, "crash", {"node": locations[rid]}))
            states[rid] = RobotState(st.id, False, st.settled, st.core)
            locations[rid] = None
            entry_ports[rid] = 0

    by_node: dict[int, list[RobotState]] = {}
    for rid in sorted(states):
        st = states[rid]
        if st.alive:
            by_node.setdefault(locations[rid], []).append(st)

    # one pass, node by node.  Every robot of a node shares one co-located
    # tuple of start-of-round states, so storing a robot's new core, or
    # moving it, changes no view; writes wait for the arbitration below.
    transition = protocol.transition
    idle = getattr(protocol, "idle", None)
    contested: dict[tuple[int, str], list[tuple[int, int, object]]] = {}
    written: dict[int, str] = {}  # lane robot id -> its wait line
    templates: dict[int, tuple] = {}  # id(note) -> (note, its wait-line template)
    for node, group in by_node.items():
        here = tuple(group)
        degree = graph.degree(node)
        for st in here:
            rid = st.id
            if idle is not None and st.settled:
                tick = idle(st)
                if tick is not None:
                    # a wait with no view: its state, its event and, from
                    # its note's template, its trace line
                    core, note = tick
                    entry = entry_ports[rid]
                    entry_ports[rid] = 0
                    new = _new_object(RobotState)
                    new.__dict__.update(id=rid, alive=True, settled=True, core=core)
                    states[rid] = new
                    payload = {"node": node, "entry": entry}
                    if note:
                        payload.update(note)
                    events.append(TraceEvent(rnd, rid, "wait", payload))
                    template = templates.get(id(note))
                    if template is None:  # the note rides along, so its id stays its own
                        template = templates[id(note)] = (note, _wait_template(note, rnd))
                    if template[1] is not None:
                        head, mid, tail, end = template[1]
                        written[rid] = f"{head}{entry}{mid}{node}{tail}{rid}{end}"
                    continue
            dec = transition(st, LocalView(degree, entry_ports[rid], here))
            core, action, note = dec.core, dec.action, dec.note
            if st.settled and action == MOVE:
                raise EngineError(f"settled robot {rid} attempted to move")
            if dec.writes:
                ids = {s.id for s in here}
                for w in dec.writes:
                    if w.target not in ids:
                        raise WriteToNonCoLocated(f"robot {rid} wrote to non-co-located robot {w.target}")
                    writers = contested.setdefault((w.target, w.field), [])
                    if writers and writers[-1][1] == rid:  # this robot's writes are appended consecutively
                        raise EngineError(f"robot {rid} wrote field {w.field!r} of robot {w.target} twice")
                    writers.append((dec.writer_priority, rid, w.value))
            for kind, extra in dec.events:
                events.append(TraceEvent(rnd, rid, kind, {"node": node, **extra}))
            states[rid] = RobotState(rid, True, st.settled or action == SETTLE, core)
            payload = {"node": node, "entry": entry_ports[rid]}
            if note:
                payload.update(note)
            if action == MOVE:
                if not 1 <= dec.port <= degree:
                    raise InvalidMovePort(f"robot {rid} chose port {dec.port} at a degree-{degree} node")
                locations[rid], entry_ports[rid] = graph.neighbor(node, dec.port)
                payload["port"] = dec.port
                events.append(TraceEvent(rnd, rid, "move", payload))
            else:
                entry_ports[rid] = 0
                events.append(TraceEvent(rnd, rid, "settle" if action == SETTLE else "wait", payload))

    # writes land on top of their targets' new cores, the strongest writer per field
    for (target, fname), writers in contested.items():
        _, _, value = max(writers, key=lambda t: (t[0], t[1]))
        st = states[target]
        states[target] = RobotState(st.id, st.alive, st.settled, replace(st.core, **{fname: value}))

    events.sort(key=lambda e: (KIND_ORDER[e.kind], e.robot))
    if written:
        events = RoundEvents(events)
        events.lines = written
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


_HOLE = "\x00"  # a wait template's stand-in for the entry port and the node
_HOLE_TEXT = encode_basestring_ascii(_HOLE)


def _wait_template(note: dict | None, rnd: int) -> tuple[str, str, str, str] | None:
    """(head, mid, tail, end) such that ``head + entry + mid + node + tail +
    robot + end`` is the ``event_line`` of round ``rnd``'s ``wait`` event
    with payload ``{"node": node, "entry": entry, **note}``, plus its
    newline.  None, and the line takes ``event_line``, when the note has an
    ``entry`` or ``node`` key of its own or holds the stand-in's encoded
    text itself."""
    if note and ("entry" in note or "node" in note):
        return None
    pieces = "".join(_ENCODE({**(note or {}), "entry": _HOLE, "node": _HOLE}, 0)).split(_HOLE_TEXT)
    if len(pieces) != 3:
        return None
    head, mid, tail = pieces
    return '{"kind":"wait","payload":' + head, mid, tail + ',"robot":', f',"round":{rnd:d}}}\n'


def event_line(event: TraceEvent) -> str:
    """One canonical JSON object: sorted keys, no spaces.  The outer object's
    four keys are written directly, in their sorted order."""
    return (
        f'{{"kind":{encode_basestring_ascii(event.kind)},"payload":{"".join(_ENCODE(event.payload, 0))},'
        f'"robot":{event.robot:d},"round":{event.round:d}}}'
    )


def trace_hash(trace: list[TraceEvent], out: list[str] | None = None, sha=None) -> str | None:
    """SHA-256 of the trace's JSON lines.  Each line is also appended to
    ``out`` when one is given, so a run's trace file is encoded only once;
    ``sha`` continues a running hash, so a streamed trace hashes chunk by
    chunk to the digest of the whole.  The digest is returned only when no
    ``sha`` is given: its owner reads it once, when the trace is complete.
    A ``RoundEvents`` chunk takes the lines its lane robots already have."""
    h = hashlib.sha256() if sha is None else sha
    written = trace.lines if type(trace) is RoundEvents else {}
    lines = [written.get(event.robot) or event_line(event) + "\n" for event in trace]
    h.update("".join(lines).encode())
    if out is not None:
        out.extend(lines)
    return h.hexdigest() if sha is None else None


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
        trace_hash(events, lines, sha)
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
        trace_hash=sha.hexdigest(),
        alive_count=sum(1 for st in world.states.values() if st.alive),
        max_memory_bits=max_bits,
    )
