"""Engine semantics: crash timing, locality, write arbitration, dispersion
predicate, memory accounting, determinism."""

from __future__ import annotations

import json
import pickle
from dataclasses import FrozenInstanceError, dataclass, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersim import cli, engine, graph as graphs, oracle
from dispersim.arbitrary import ArbitraryDispersion
from dispersim.engine import (
    MOVE,
    SETTLE,
    STAY,
    CrashSchedule,
    Decision,
    LocalView,
    RobotState,
    Write,
)
from dispersim.rooted import AT_ROOT, RootedCore, RootedDispersion
from reference_round import reference_step


@dataclass(frozen=True)
class StubCore:
    tag: int = 0
    port: int = 0  # port to move through; 0 = settle in place


class StubProtocol:
    """Minimal protocol for engine-contract tests."""

    name = "stub"
    round_budget = 50

    def __init__(self, script=None, k=2):
        # script: robot id -> callable(state, view) -> Decision
        self.script = script or {}
        self.k = k

    def init_core(self, rid):
        return StubCore()

    def memory_bits(self, state):
        return 8

    def transition(self, state, view):
        fn = self.script.get(state.id)
        if fn is not None:
            return fn(state, view)
        if not state.settled:
            return Decision(state.core, SETTLE)
        return Decision(state.core, STAY)


def test_crashed_robot_leaves_all_views():
    g = graphs.path(4)
    protocol = StubProtocol(script={1: lambda s, v: Decision(s.core, STAY), 2: lambda s, v: Decision(s.core, STAY)})
    schedule = CrashSchedule.from_pairs([(2, 5)])
    world = engine.initial_world(g, {1: 1, 2: 1}, protocol)
    views_of_1 = []

    base_transition = protocol.transition

    def spy(state, view):
        if state.id == 1:
            views_of_1.append({s.id for s in view.co_located})
        return base_transition(state, view)

    protocol.transition = spy
    trace = []
    for _ in range(8):
        world, events = engine.step(world, g, protocol, schedule)
        trace += events
    assert views_of_1[:4] == [{1, 2}] * 4
    assert all(ids == {1} for ids in views_of_1[4:])
    assert world.locations[2] is None
    assert not any(e.robot == 2 and e.round > 5 for e in trace)


def test_crash_event_precedes_everything_in_round():
    g = graphs.path(2)
    protocol = StubProtocol(script={1: lambda s, v: Decision(s.core, STAY)})
    schedule = CrashSchedule.from_pairs([(1, 1)])
    world = engine.initial_world(g, {1: 1}, protocol)
    world, events = engine.step(world, g, protocol, schedule)
    assert [e.kind for e in events] == ["crash"]
    assert engine.is_dispersed(world, g)  # vacuous: zero alive robots


def test_write_arbitration_higher_priority_wins():
    # two writers target the settled robot 1's tag in one round; the higher
    # writer_priority must win, ties broken by higher writer id
    g = graphs.path(4)

    def settled(state, view):
        return Decision(state.core, STAY)

    def writer(priority, value):
        def fn(state, view):
            return Decision(
                state.core, STAY, writes=(Write(1, "tag", value),), writer_priority=priority
            )
        return fn

    protocol = StubProtocol(script={1: settled, 2: writer(5, 500), 3: writer(9, 900)})
    world = engine.initial_world(g, {1: 2, 2: 2, 3: 2}, protocol)
    world.states[1] = replace(world.states[1], settled=True)
    world, _ = engine.step(world, g, protocol, CrashSchedule())
    assert world.states[1].core.tag == 900

    # equal priority: higher writer id wins
    protocol = StubProtocol(script={1: settled, 2: writer(5, 500), 3: writer(5, 900)})
    world = engine.initial_world(g, {1: 2, 2: 2, 3: 2}, protocol)
    world.states[1] = replace(world.states[1], settled=True)
    world, _ = engine.step(world, g, protocol, CrashSchedule())
    assert world.states[1].core.tag == 900


def test_write_to_non_co_located_rejected():
    g = graphs.path(4)
    protocol = StubProtocol(
        script={
            1: lambda s, v: Decision(s.core, STAY),
            2: lambda s, v: Decision(s.core, STAY, writes=(Write(1, "tag", 7),)),
        }
    )
    world = engine.initial_world(g, {1: 1, 2: 3}, protocol)
    with pytest.raises(engine.WriteToNonCoLocated):
        engine.step(world, g, protocol, CrashSchedule())


@pytest.mark.parametrize("step", [engine.step, reference_step], ids=["step", "reference"])
def test_a_decision_that_writes_one_field_twice_is_rejected(step):
    g = graphs.path(2)
    twice = lambda s, v: Decision(s.core, STAY, writes=(Write(1, "tag", 0), Write(2, "tag", 5), Write(1, "tag", 1)))
    protocol = StubProtocol(script={1: twice, 2: lambda s, v: Decision(s.core, STAY)})
    world = engine.initial_world(g, {1: 1, 2: 1}, protocol)
    with pytest.raises(engine.EngineError, match=r"^robot 1 wrote field 'tag' of robot 1 twice$"):
        step(world, g, protocol, CrashSchedule())
    # one write per (target, field) is fine, whoever else writes that field
    once = lambda s, v: Decision(s.core, STAY, writes=(Write(1, "tag", 0), Write(1, "port", 1)))
    protocol = StubProtocol(script={1: once, 2: lambda s, v: Decision(s.core, STAY, writes=(Write(1, "tag", 3),))})
    world, _ = step(engine.initial_world(g, {1: 1, 2: 1}, protocol), g, protocol, CrashSchedule())
    assert world.states[1].core == StubCore(tag=3, port=1)


def test_invalid_move_port_rejected():
    g = graphs.path(2)
    protocol = StubProtocol(script={1: lambda s, v: Decision(s.core, MOVE, port=2)})
    world = engine.initial_world(g, {1: 1}, protocol)
    with pytest.raises(engine.InvalidMovePort):
        engine.step(world, g, protocol, CrashSchedule())


def test_settled_robot_cannot_move():
    g = graphs.path(2)
    protocol = StubProtocol(script={1: lambda s, v: Decision(s.core, MOVE, port=1)})
    world = engine.initial_world(g, {1: 1}, protocol)
    world.states[1] = replace(world.states[1], settled=True)
    with pytest.raises(engine.EngineError):
        engine.step(world, g, protocol, CrashSchedule())


def _steps_leave_unchanged(world, g, protocol, schedule):
    """Step ``world`` twice: it must not change, and both steps must agree.  Returns one."""
    before = (dict(world.states), dict(world.locations), dict(world.entry_ports), list(world.trace))
    results = []
    for _ in range(2):
        results.append(engine.step(world, g, protocol, schedule))
        assert (world.states, world.locations, world.entry_ports, world.trace) == before
    assert results[0] == results[1]
    return results[0]


def test_step_leaves_its_input_world_unchanged():
    g = graphs.ring(6)
    ids = [1, 2, 3]
    protocol = RootedDispersion(ids, g.max_degree())
    schedule = CrashSchedule.from_pairs([(2, 4)])
    world = engine.run(g, {i: 1 for i in ids}, protocol, schedule, max_rounds=3).world
    nxt, events = _steps_leave_unchanged(world, g, protocol, schedule)
    assert nxt.round == 4 and nxt.trace == [] and any(e.kind == "crash" for e in events)


def test_step_leaves_its_input_arbitrary_world_unchanged_mid_phase():
    # determinism config 6 after round 1: robot 2 is settled and mid-phase,
    # so round 2 ticks it through the idle lane and an adopting cluster
    # writes to it on top of that tick
    sc = cli.Scenario.from_config(oracle.determinism_configs()[6])
    world = engine.run(sc.graph, sc.placement, sc.protocol, sc.schedule, max_rounds=1).world
    assert world.states[2].settled and world.states[2].core.counter > 0
    nxt, events = _steps_leave_unchanged(world, sc.graph, sc.protocol, sc.schedule)
    assert nxt.round == 2 and nxt.trace == [] and nxt.states[2].core.cid != world.states[2].core.cid


@pytest.mark.parametrize("index", [1, 6], ids=["rooted-ring6-crash", "arbitrary-l2-crash"])
def test_kept_runs_from_one_snapshot_equal_the_full_run(index):
    sc = cli.Scenario.from_config(oracle.determinism_configs()[index])
    args = (sc.graph, sc.placement, sc.protocol, sc.schedule)
    full = engine.run(*args)
    head = engine.run(*args, max_rounds=full.rounds_elapsed // 2)
    head_events = len(head.world.trace)
    for _ in range(2):
        rest = engine.run(*args, initial=head.world)
        assert rest.world.trace == full.world.trace
        assert rest.trace_hash == full.trace_hash
        assert len(head.world.trace) == head_events


class IdleStub(StubProtocol):
    """StubProtocol whose settled robots tick ``tag`` in the idle lane,
    except those with an even tag, which it declines."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.offered: list[int] = []
        self.computed: list[int] = []

    def idle(self, state):
        self.offered.append(state.id)
        if state.core.tag % 2 == 0:
            return None
        return replace(state.core, tag=state.core.tag + 2), {"tick": state.core.tag}

    def transition(self, state, view):
        self.computed.append(state.id)
        return super().transition(state, view)


def test_step_offers_idle_to_settled_robots_only():
    g = graphs.path(3)
    protocol = IdleStub()
    world = engine.initial_world(g, {1: 1, 2: 1, 3: 2, 4: 3}, protocol)
    world.states[1] = replace(world.states[1], settled=True, core=StubCore(tag=1))
    world.states[3] = replace(world.states[3], settled=True, core=StubCore(tag=4))
    world.entry_ports[1] = 2  # a lane robot still reports, then clears, its entry port
    nxt, events = engine.step(world, g, protocol, CrashSchedule())
    assert protocol.offered == [1, 3]  # settled robots, in id order
    assert protocol.computed == [2, 3, 4]  # robot 3's idle declined: it transitions
    assert nxt.states[1] == RobotState(1, True, True, StubCore(tag=3))
    assert nxt.entry_ports[1] == 0
    assert [(e.robot, e.kind, e.payload) for e in events] == [
        (2, "settle", {"node": 1, "entry": 0}),
        (4, "settle", {"node": 3, "entry": 0}),
        (1, "wait", {"node": 1, "entry": 2, "tick": 1}),
        (3, "wait", {"node": 2, "entry": 0}),
    ]


def test_writes_land_on_top_of_an_idle_tick():
    g = graphs.path(2)
    writer = lambda s, v: Decision(s.core, STAY, writes=(Write(1, "port", 2),))
    protocol = IdleStub(script={2: writer})
    world = engine.initial_world(g, {1: 1, 2: 1}, protocol)
    world.states[1] = replace(world.states[1], settled=True, core=StubCore(tag=1))
    nxt, _ = engine.step(world, g, protocol, CrashSchedule())
    assert protocol.computed == [2]
    assert nxt.states[1].core == StubCore(tag=3, port=2)


def test_step_without_idle_transitions_every_robot():
    assert not hasattr(StubProtocol(), "idle")
    g = graphs.path(3)
    calls = []

    def spy(state, view):
        calls.append(state.id)
        return Decision(state.core, STAY if state.settled else SETTLE)

    # settled robots keep their core either way, so an idle that says so
    # gives the same rounds as transitions that do
    class SameIdle(StubProtocol):
        def idle(self, state):
            return state.core, None

    runs = []
    for protocol in (StubProtocol(script={1: spy, 2: spy, 3: spy}), SameIdle()):
        world = engine.initial_world(g, {1: 1, 2: 2, 3: 3}, protocol)
        rounds = []
        for _ in range(3):
            world, events = engine.step(world, g, protocol, CrashSchedule())
            rounds.append((world, events))
        runs.append(rounds)
    assert calls == [1, 2, 3] * 3
    assert runs[0] == runs[1]


def test_step_visits_robots_node_by_node_with_one_shared_tuple():
    g = graphs.path(3)
    protocol = StubProtocol()
    calls = []

    def spy(state, view):
        calls.append((state.id, view.co_located))
        return Decision(state.core, STAY)

    protocol.transition = spy
    world = engine.initial_world(g, {1: 1, 2: 2, 3: 1, 4: 3, 5: 2}, protocol)
    engine.step(world, g, protocol, CrashSchedule())
    # nodes in order of their lowest robot id, robots of a node in id order
    assert [rid for rid, _ in calls] == [1, 3, 2, 5, 4]
    tuples = [here for _, here in calls]
    assert tuples[0] is tuples[1] and tuples[2] is tuples[3]
    assert [[s.id for s in here] for here in tuples] == [[1, 3], [1, 3], [2, 5], [2, 5], [4]]


def test_write_lands_on_a_target_visited_after_its_writer():
    # robot 1 writes to robot 2 before robot 2's own transition changes its core
    g = graphs.path(2)
    protocol = StubProtocol(
        script={
            1: lambda s, v: Decision(s.core, STAY, writes=(Write(2, "port", 2),)),
            2: lambda s, v: Decision(replace(s.core, tag=5), STAY),
        }
    )
    world = engine.initial_world(g, {1: 1, 2: 1}, protocol)
    nxt, _ = engine.step(world, g, protocol, CrashSchedule())
    assert nxt.states[2].core == StubCore(tag=5, port=2)


def test_round_with_crash_idle_lane_and_moves():
    # robot 1 crashes; robot 2 ticks in the idle lane while robot 3 writes to
    # it and moves; robot 4 declines the lane and robot 5 writes to it and moves
    g = graphs.path(3)
    protocol = IdleStub(
        script={
            3: lambda s, v: Decision(s.core, MOVE, port=1, writes=(Write(2, "port", 1),)),
            5: lambda s, v: Decision(s.core, MOVE, port=2, writes=(Write(4, "tag", 8),)),
        }
    )
    world = engine.initial_world(g, {1: 1, 2: 1, 3: 1, 4: 2, 5: 2}, protocol)
    world.states[2] = replace(world.states[2], settled=True, core=StubCore(tag=1))
    world.states[4] = replace(world.states[4], settled=True, core=StubCore(tag=2))
    world.entry_ports[2] = 1
    schedule = CrashSchedule.from_pairs([(1, 1)])
    nxt, events = _steps_leave_unchanged(world, g, protocol, schedule)
    assert protocol.offered == [2, 4] * 2 and protocol.computed == [3, 4, 5] * 2
    assert [(e.round, e.robot, e.kind, e.payload) for e in events] == [
        (1, 1, "crash", {"node": 1}),
        (1, 3, "move", {"node": 1, "entry": 0, "port": 1}),
        (1, 5, "move", {"node": 2, "entry": 0, "port": 2}),
        (1, 2, "wait", {"node": 1, "entry": 1, "tick": 1}),
        (1, 4, "wait", {"node": 2, "entry": 0}),
    ]
    assert nxt.states == {
        1: RobotState(1, False, False, StubCore()),
        2: RobotState(2, True, True, StubCore(tag=3, port=1)),
        3: RobotState(3, True, False, StubCore()),
        4: RobotState(4, True, True, StubCore(tag=8)),
        5: RobotState(5, True, False, StubCore()),
    }
    assert nxt.locations == {1: None, 2: 1, 3: 2, 4: 2, 5: 3}
    assert nxt.entry_ports == {1: 0, 2: 0, 3: 1, 4: 0, 5: 1}


def test_local_view_carries_no_node_identity():
    assert {f.name for f in fields(LocalView)} == {"degree", "entry_port", "co_located"}
    assert {f.name for f in fields(RobotState)} == {"id", "alive", "settled", "core"}


def test_is_dispersed_cases():
    g = graphs.path(2)
    protocol = StubProtocol()
    world = engine.initial_world(g, {1: 1}, protocol)
    world.states[1] = replace(world.states[1], settled=True)
    assert engine.is_dispersed(world, g)

    world2 = engine.initial_world(g, {1: 1, 2: 1}, protocol)
    world2.states[1] = replace(world2.states[1], settled=True)
    world2.states[2] = replace(world2.states[2], settled=True)
    assert not engine.is_dispersed(world2, g)  # co-located


def test_rooted_run_occupies_distinct_nodes():
    g = graphs.random_connected(10, 15, 7)
    ids = list(range(1, 11))
    protocol = RootedDispersion(ids, g.max_degree())
    result = engine.run(g, {i: 1 for i in ids}, protocol)
    assert result.dispersed
    occupied = [result.world.locations[r] for r in ids]
    assert len(set(occupied)) == 10


def test_first_robot_settles_at_root():
    g = graphs.path(2)
    protocol = RootedDispersion([1], g.max_degree())
    world = engine.initial_world(g, {1: 1}, protocol)
    world, _ = engine.step(world, g, protocol, CrashSchedule())
    assert world.states[1].settled
    assert world.locations[1] == 1


def test_memory_bits_documented_encoding():
    # k=8, delta=3, settled robot: id 4 + settled 1 + mode 2 + parent 3 +
    # cdr 3 + used 1 + done 1 + clock ceil(log2(25))=5 -> 20 bits
    protocol = RootedDispersion(list(range(1, 9)), 3)
    settled = RobotState(1, True, True, RootedCore(mode="settled", parent=None, cdr=1))
    assert protocol.memory_bits(settled) == 20
    from dispersim.oracle import memory_envelope

    assert memory_envelope(8, 3) == 44
    assert 20 <= 44

    # waiting robots additionally replicate the release bookkeeping
    waiting = RobotState(2, True, False, RootedCore(mode=AT_ROOT))
    assert protocol.memory_bits(waiting) == 20 + 5 + 4


def test_run_is_deterministic():
    g = graphs.random_connected(9, 14, 4)
    ids = list(range(1, 7))
    schedule = CrashSchedule.from_pairs([(2, 9), (5, 30)])
    results = [
        engine.run(g, {i: 1 for i in ids}, RootedDispersion(ids, g.max_degree()), schedule)
        for _ in range(2)
    ]
    assert results[0].trace_hash == results[1].trace_hash
    assert results[0].summary() == results[1].summary()


@pytest.mark.parametrize(
    "payload",
    [None, {}, {"node": 3, "entry": 0}, {"z": [1, 2.5, None], "a": {"b": True, "a": "é"}}],
    ids=["none", "empty", "flat", "nested"],
)
def test_event_line_is_canonical_json(payload):
    event = engine.TraceEvent(7, 2, "move", payload)
    expected = json.dumps(
        {"round": 7, "robot": 2, "kind": "move", "payload": payload}, sort_keys=True, separators=(",", ":")
    )
    assert engine.event_line(event) == expected


def test_trace_event_is_one_slotted_value():
    event = engine.TraceEvent(7, 2, "move", {"node": 3, "entry": 0})
    assert not hasattr(event, "__dict__")
    assert event == engine.TraceEvent(7, 2, "move", {"node": 3, "entry": 0})
    assert replace(event, round=8) == engine.TraceEvent(8, 2, "move", {"node": 3, "entry": 0}) != event
    assert pickle.loads(pickle.dumps(event)) == event
    assert hash(engine.TraceEvent(1, 2, "wait")) == hash((1, 2, "wait", None))
    with pytest.raises(TypeError):
        hash(event)  # a dict payload is unhashable
    with pytest.raises(FrozenInstanceError):
        event.round = 8


def test_all_crash_round_one_vacuously_dispersed():
    g = graphs.ring(4)
    ids = [1, 2, 3]
    schedule = CrashSchedule.from_pairs([(i, 1) for i in ids])
    result = engine.run(g, {i: 1 for i in ids}, RootedDispersion(ids, g.max_degree()), schedule)
    assert result.dispersed
    assert result.alive_count == 0


def test_trace_event_order_within_round():
    order = [engine.KIND_ORDER[k] for k in ("crash", "repair", "settle", "merge", "reset", "move", "wait")]
    assert order == sorted(order)


# -- the lane's wait lines, written from one template per note object ----------------


def _canonical(event) -> str:
    return json.dumps(
        {"kind": event.kind, "payload": event.payload, "robot": event.robot, "round": event.round},
        sort_keys=True,
        separators=(",", ":"),
    )


def _hashed_lines(events) -> list[str]:
    lines: list[str] = []
    engine.trace_hash(events, lines)
    return lines


class SharedNoteStub(StubProtocol):
    """Settled robots wait in the idle lane, all with one note object."""

    def __init__(self, note, **kw):
        super().__init__(**kw)
        self.note = note

    def idle(self, state):
        return state.core, self.note


# keys before "entry" (a, b), between "entry" and "node" (f, g, m) and after "node" (o, z)
SHARED_NOTE = {
    "a": None,
    "b": [1, [True, None], {"y": 0, "x": "\u00e9"}],
    "f": True,
    "g": 'a "quoted" back\\slash, caf\u00e9',
    "m": False,
    "o": 0,
    "z": 1,
}


def _lane_round(note):
    """Robots 1-4 settled on nodes 1-4 of a ring, entering through ports
    0-3, and robot 5 unsettled on node 1; one step, every settled robot in
    the lane."""
    g = graphs.ring(5)
    protocol = SharedNoteStub(note)
    world = engine.initial_world(g, {1: 1, 2: 2, 3: 3, 4: 4, 5: 1}, protocol)
    for rid in (1, 2, 3, 4):
        world.states[rid] = replace(world.states[rid], settled=True)
        world.entry_ports[rid] = rid - 1
    return engine.step(world, g, protocol, CrashSchedule())[1]


def test_lane_lines_from_one_template_are_canonical_json():
    events = _lane_round(SHARED_NOTE)
    lines = _hashed_lines(events)
    assert [(e.robot, e.kind) for e in events] == [(5, "settle"), (1, "wait"), (2, "wait"), (3, "wait"), (4, "wait")]
    assert lines == [_canonical(e) + "\n" for e in events]
    assert type(events) is engine.RoundEvents and sorted(events.lines) == [1, 2, 3, 4]
    assert [events.lines[e.robot] for e in events if e.kind == "wait"] == lines[1:]
    assert events[1].payload == {"node": 1, "entry": 0, **SHARED_NOTE}


@pytest.mark.parametrize(
    "note", [{"entry": 9}, {"a": 1, "node": "x"}, {"k": "\x00"}], ids=["entry", "node", "stand-in"]
)
def test_a_note_with_its_own_entry_or_node_takes_event_line(note):
    events = _lane_round(note)
    assert not isinstance(events, engine.RoundEvents)
    assert _hashed_lines(events) == [_canonical(e) + "\n" for e in events]


@pytest.mark.parametrize("index", [i for i, cfg in enumerate(oracle.determinism_configs()) if cfg["protocol"] == "arbitrary"])
def test_every_arbitrary_trace_line_is_canonical_json(index):
    chunks = []
    cli.Scenario.from_config(oracle.determinism_configs()[index]).run(
        trace_out=lambda events, lines: chunks.append((events, lines))
    )
    assert any(type(events) is engine.RoundEvents for events, _ in chunks)
    for events, lines in chunks:
        assert lines == [_canonical(e) + "\n" for e in events]


# -- engine.step beside the plain reference round ------------------------------------


@st.composite
def _small_runs(draw):
    """(graph, placement, two fresh protocols, crash schedule): rooted or
    clustered on a small random graph, with up to three drawn crashes."""
    n = draw(st.integers(3, 8))
    g = graphs.random_connected(n, min(n - 1 + draw(st.integers(0, 5)), n * (n - 1) // 2), draw(st.integers(0, 10**6)))
    ids = list(range(1, draw(st.integers(1, n)) + 1))
    if draw(st.booleans()):
        make = lambda: RootedDispersion(ids, g.max_degree())
        placement = {rid: 1 for rid in ids}
    else:
        clusters = cli.default_clusters(n, ids, draw(st.integers(1, min(3, len(ids)))))
        faults = draw(st.integers(0, 2))
        make = lambda: ArbitraryDispersion([grp for _, grp in clusters], g.edge_count, g.max_degree(), faults=faults)
        placement = {rid: node for node, grp in clusters for rid in grp}
    crashes = draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(1, 40)), max_size=3, unique_by=lambda c: c[0]))
    return g, placement, make(), make(), CrashSchedule.from_pairs(crashes)


@settings(max_examples=100, deadline=None)
@given(_small_runs())
def test_step_equals_the_reference_round(config):
    g, placement, protocol, reference, schedule = config
    world = ref = engine.initial_world(g, placement, protocol)
    while world.round < min(protocol.round_budget, 150):
        world, events = engine.step(world, g, protocol, schedule)
        ref, ref_events = reference_step(ref, g, reference, schedule)
        assert world == ref
        assert events == ref_events
        assert _hashed_lines(events) == _hashed_lines(ref_events)
        if all(s.settled for s in world.states.values() if s.alive):
            break


@dataclass(frozen=True)
class ScriptCore:
    clock: int = 0  # rounds this robot has computed
    tag: int = 0  # the field other robots write


_SCRIPT_NOTES = (None, {"tag": 0}, {"tag": 1, "say": "hi"})  # shared objects, as a lane's notes are

# (kind, port index, writes as (target index, value), writer priority, note index, extra event)
_script_moves = st.tuples(
    st.sampled_from(["idle", "stay", "settle", "move"]),
    st.integers(0, 5),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=2),
    st.integers(0, 2),
    st.integers(0, len(_SCRIPT_NOTES) - 1),
    st.sampled_from([None, "repair", "merge"]),
)


class ScriptProtocol:
    """A protocol whose every decision is drawn, once per (robot, clock) and
    shared by every caller: a wait, a stay, a settle or a move through a
    drawn port, writes to co-located robots' ``tag`` with drawn values and
    priority, an extra event that reports the view's states, and a note.
    ``idle`` answers a drawn wait of a settled robot exactly as
    ``transition`` does, and nothing else."""

    def __init__(self, data):
        self.data = data
        self.moves = {}

    def _move(self, state):
        key = (state.id, state.core.clock)
        if key not in self.moves:
            self.moves[key] = self.data.draw(_script_moves)
        return self.moves[key]

    def idle(self, state):
        kind, _, _, _, note, _ = self._move(state)
        if kind != "idle":
            return None
        return replace(state.core, clock=state.core.clock + 1), _SCRIPT_NOTES[note]

    def transition(self, state, view):
        kind, port, writes, priority, note, extra = self._move(state)
        core = replace(state.core, clock=state.core.clock + 1)
        if kind == "idle":
            return Decision(core, STAY, note=_SCRIPT_NOTES[note])
        here = view.co_located
        # one write per target: a Decision that writes one field twice is an error
        tags = {here[i % len(here)].id: value for i, value in writes}
        action = MOVE if kind == "move" and not state.settled else SETTLE if kind == "settle" else STAY
        return Decision(
            core,
            action,
            port=1 + port % view.degree if action == MOVE else 0,
            writes=tuple(Write(target, "tag", value) for target, value in tags.items()),
            events=((extra, {"saw": [(s.id, s.core.clock, s.core.tag) for s in here]}),) if extra else (),
            note=_SCRIPT_NOTES[note],
            writer_priority=priority,
        )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_step_equals_the_reference_round_on_drawn_decisions(data):
    # a drawn initial world: robots crowd few nodes, so writes contend, and
    # settled robots may start with a non-zero entry port
    draw = data.draw
    n = draw(st.integers(2, 6))
    g = graphs.random_connected(n, min(n - 1 + draw(st.integers(0, 4)), n * (n - 1) // 2), draw(st.integers(0, 99)))
    ids = range(1, draw(st.integers(1, 6)) + 1)
    locations = {rid: draw(st.integers(1, 2)) for rid in ids}
    states = {rid: RobotState(rid, True, draw(st.booleans()), ScriptCore(tag=draw(st.integers(0, 3)))) for rid in ids}
    entry_ports = {rid: draw(st.integers(0, g.degree(locations[rid]))) for rid in ids}
    crashes = draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(1, 8)), max_size=2, unique_by=lambda c: c[0]))
    schedule = CrashSchedule.from_pairs(crashes)
    protocol = ScriptProtocol(data)
    world = ref = engine.WorldState(0, states, locations, entry_ports)
    for _ in range(8):
        world, events = engine.step(world, g, protocol, schedule)
        ref, ref_events = reference_step(ref, g, protocol, schedule)
        assert world == ref
        assert events == ref_events
        assert _hashed_lines(events) == _hashed_lines(ref_events)
