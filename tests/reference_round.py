"""The paper's Communicate-Compute-Move round, written plainly.

A reference for ``engine.step``: crashes; every view from the start-of-round
snapshot; every decision; then the new cores, the writes by (priority, id)
and the moves.  A Decision that writes one field of one robot twice is an
error.  It has no idle lane, no grouping by node and no caches, so
every robot goes through ``transition`` with a co-located tuple of its own.
"""

from __future__ import annotations

from dataclasses import replace

from dispersim.engine import (
    KIND_ORDER,
    MOVE,
    SETTLE,
    EngineError,
    InvalidMovePort,
    LocalView,
    RobotState,
    TraceEvent,
    WorldState,
    WriteToNonCoLocated,
)


def reference_step(world: WorldState, graph, protocol, schedule) -> tuple[WorldState, list[TraceEvent]]:
    rnd = world.round + 1
    states, locations, entry_ports = dict(world.states), dict(world.locations), dict(world.entry_ports)
    events = []
    for rid in schedule.victims_at(rnd):
        st = states.get(rid)
        if st is not None and st.alive:
            events.append(TraceEvent(rnd, rid, "crash", {"node": locations[rid]}))
            states[rid] = RobotState(rid, False, st.settled, st.core)
            locations[rid], entry_ports[rid] = None, 0

    alive = sorted(rid for rid, st in states.items() if st.alive)
    views = {
        rid: LocalView(
            graph.degree(locations[rid]),
            entry_ports[rid],
            tuple(states[other] for other in alive if locations[other] == locations[rid]),
        )
        for rid in alive
    }
    decisions = {rid: protocol.transition(states[rid], views[rid]) for rid in alive}

    for rid, dec in decisions.items():
        st = states[rid]
        if st.settled and dec.action == MOVE:
            raise EngineError(f"settled robot {rid} attempted to move")
        fields = [(w.target, w.field) for w in dec.writes]
        for target, name in fields:
            if fields.count((target, name)) > 1:
                raise EngineError(f"robot {rid} wrote field {name!r} of robot {target} twice")
        states[rid] = RobotState(rid, True, st.settled or dec.action == SETTLE, dec.core)

    # the strongest writer of a field writes last
    writes = sorted(
        ((dec.writer_priority, rid, w) for rid, dec in decisions.items() for w in dec.writes), key=lambda t: t[:2]
    )
    for _, rid, w in writes:
        if w.target not in {s.id for s in views[rid].co_located}:
            raise WriteToNonCoLocated(f"robot {rid} wrote to non-co-located robot {w.target}")
        st = states[w.target]
        states[w.target] = RobotState(st.id, st.alive, st.settled, replace(st.core, **{w.field: w.value}))

    for rid, dec in decisions.items():
        node, degree = locations[rid], views[rid].degree
        events.extend(TraceEvent(rnd, rid, kind, {"node": node, **extra}) for kind, extra in dec.events)
        payload = {"node": node, "entry": entry_ports[rid], **(dec.note or {})}
        if dec.action == MOVE:
            if not 1 <= dec.port <= degree:
                raise InvalidMovePort(f"robot {rid} chose port {dec.port} at a degree-{degree} node")
            locations[rid], entry_ports[rid] = graph.neighbor(node, dec.port)
            events.append(TraceEvent(rnd, rid, "move", {**payload, "port": dec.port}))
        else:
            entry_ports[rid] = 0
            events.append(TraceEvent(rnd, rid, "settle" if dec.action == SETTLE else "wait", payload))

    events.sort(key=lambda e: (KIND_ORDER[e.kind], e.robot))
    return WorldState(rnd, states, locations, entry_ports), events
