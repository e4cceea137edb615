"""Engine semantics: crash timing, locality, write arbitration, dispersion
predicate, memory accounting, determinism."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

import pytest

from dispersim import cli, engine, graph as graphs, oracle
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


def test_step_leaves_its_input_world_unchanged():
    g = graphs.ring(6)
    ids = [1, 2, 3]
    protocol = RootedDispersion(ids, g.max_degree())
    schedule = CrashSchedule.from_pairs([(2, 4)])
    world = engine.run(g, {i: 1 for i in ids}, protocol, schedule, max_rounds=3).world
    before = (dict(world.states), dict(world.locations), dict(world.entry_ports), list(world.trace))
    for _ in range(2):
        nxt, events = engine.step(world, g, protocol, schedule)
        assert (world.states, world.locations, world.entry_ports, world.trace) == before
        assert nxt.round == 4 and nxt.trace == [] and any(e.kind == "crash" for e in events)


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
