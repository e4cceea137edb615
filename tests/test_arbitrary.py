"""Clustered protocol: phases, resets, encounters, merges, sweeps, bounds."""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError, fields, replace
from math import ceil, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersim import cli, engine, graph as graphs, oracle
from dispersim.arbitrary import ArbitraryCore, ArbitraryDispersion, _evolve
from dispersim.engine import (
    MOVE,
    SETTLE,
    STAY,
    CrashSchedule,
    LocalView,
    RobotState,
    WorldState,
    run,
)


def make_protocol(clusters, g, faults=0, **kw):
    return ArbitraryDispersion(clusters, g.edge_count, g.max_degree(), faults=faults, **kw)


def fabricate(rid, settled, **core_fields):
    return RobotState(rid, True, settled, ArbitraryCore(**core_fields))


# -- unit-level transition rules ---------------------------------------------------


def test_cluster_settles_lowest_id_and_rest_leave_through_pointer():
    g = graphs.ring(8)
    proto = make_protocol([[4, 9], [1, 2, 3]], g)  # k=5 keeps deg 2 below the sweep trigger
    c = proto.phase_len
    r4 = fabricate(4, False, cid=9, priority=9, counter=c)
    r9 = fabricate(9, False, cid=9, priority=9, counter=c)
    view = LocalView(degree=2, entry_port=1, co_located=(r4, r9))

    d4 = proto.transition(r4, view)
    assert d4.action == SETTLE
    assert d4.core.parent == 1 and d4.core.cdr == 2 and d4.core.priority == 9

    d9 = proto.transition(r9, view)
    assert d9.action == MOVE and d9.port == 2
    assert any(w.target == 4 and w.field == "cdr_used" and w.value for w in d9.writes)


def test_singleton_cluster_settles_immediately_with_zero_moves():
    g = graphs.ring(5)
    proto = make_protocol([[3]], g)
    result = run(g, {3: 2}, proto)
    assert result.rounds_elapsed == 1 and result.dispersed
    assert not any(e.kind == "move" for e in result.world.trace)


def test_lower_priority_cluster_waits_for_phase_end():
    g = graphs.ring(8)
    proto = make_protocol([[5], [9], [1, 2, 3]], g)
    c = proto.phase_len
    mover = fabricate(5, False, cid=5, priority=5, counter=c)
    squatter = fabricate(9, True, cid=9, priority=9, parent=1, cdr=2, counter=c)
    view = LocalView(degree=2, entry_port=1, co_located=(mover, squatter))
    dec = proto.transition(mover, view)
    assert dec.action == STAY and dec.core.waiting


def test_higher_priority_cluster_overwrites_settled_robot():
    g = graphs.ring(8)
    proto = make_protocol([[5], [9], [1, 2, 3]], g)
    c = proto.phase_len
    mover = fabricate(9, False, cid=9, priority=9, counter=c)
    squatter = fabricate(5, True, cid=5, priority=5, parent=2, cdr=1, counter=c)
    view = LocalView(degree=3, entry_port=1, co_located=(mover, squatter))
    dec = proto.transition(mover, view)
    assert dec.action == MOVE
    got = {(w.field, w.value) for w in dec.writes if w.target == 5}
    assert ("cid", 9) in got and ("priority", 9) in got and ("parent", 1) in got
    assert ("cdr", 2) in got  # minimum port skipping the new parent
    assert dec.port == 2


def test_reset_settled_robot_is_adopted():
    g = graphs.ring(8)
    proto = make_protocol([[7], [1, 2, 3]], g)
    c = proto.phase_len
    mover = fabricate(7, False, cid=7, priority=7, counter=c)
    blank = fabricate(2, True, cid=None, priority=None, counter=c)
    view = LocalView(degree=2, entry_port=2, co_located=(mover, blank))
    dec = proto.transition(mover, view)
    assert dec.action == MOVE
    got = {(w.field, w.value) for w in dec.writes if w.target == 2}
    assert ("cid", 7) in got and ("parent", 2) in got and ("cdr", 1) in got


def test_co_located_clusters_highest_explores_rest_wait():
    # Algorithm-3 rule: the strongest cluster continues, the others merge and
    # wait out the phase
    g = graphs.ring(8)
    proto = make_protocol([[6], [9], [1, 2, 3]], g)
    c = proto.phase_len
    lo = fabricate(6, False, cid=6, priority=6, counter=c)
    hi = fabricate(9, False, cid=9, priority=9, counter=c)
    view = LocalView(degree=2, entry_port=0, co_located=(lo, hi))

    d_lo = proto.transition(lo, view)
    assert d_lo.action == STAY and d_lo.core.waiting
    assert any(kind == "merge" for kind, _ in d_lo.events)

    d_hi = proto.transition(hi, view)
    assert not d_hi.core.waiting  # the strongest ignores the others


def test_phase_reset_clears_settled_pointers_and_reforms_clusters():
    g = graphs.ring(8)
    proto = make_protocol([[3, 7], [8, 9]], g)
    settled = fabricate(9, True, cid=9, priority=9, parent=1, cdr=2, counter=0, phase_index=0)
    view = LocalView(degree=2, entry_port=0, co_located=(settled,))
    dec = proto.transition(settled, view)
    assert dec.core.cid is None and dec.core.parent is None
    assert dec.core.phase_index == 1
    assert dec.core.counter == proto.phase_len - 1  # reset then one round elapses

    a = fabricate(3, False, cid=3, priority=3, counter=0)
    b = fabricate(7, False, cid=7, priority=7, counter=0)
    blank = fabricate(9, True, cid=9, priority=9, parent=1, cdr=2, counter=0)
    view2 = LocalView(degree=2, entry_port=0, co_located=(a, b, blank))
    da = proto.transition(a, view2)
    db = proto.transition(b, view2)
    assert da.core.cid == db.core.cid == 7  # max co-located unsettled id
    assert any(kind == "reset" for kind, _ in da.events)


# -- scenario runs --------------------------------------------------------------------


def test_single_cluster_ring_dispersal_within_phase_budget():
    g = graphs.ring(8)
    proto = make_protocol([[1, 2, 3, 4, 5]], g)
    assert proto.phase_len == min(8, 5 * 2, 25) == 8
    result = run(g, {i: 1 for i in [1, 2, 3, 4, 5]}, proto)
    assert result.dispersed and result.rounds_elapsed <= 8


def test_merged_cluster_waits_until_next_phase():
    # two clusters collide mid-phase on a path: the weaker one stops moving
    # until the reset round
    g = graphs.path(6)
    proto = make_protocol([[1, 2], [5, 6]], g)
    placement = {1: 1, 2: 1, 5: 6, 6: 6}
    result = run(g, placement, proto)
    assert result.dispersed
    merges = [e for e in result.world.trace if e.kind == "merge"]
    if merges:  # collision geometry: weaker robots must freeze till reset
        merge_round = merges[0].round
        victims = {e.robot for e in merges}
        reset_after = min(
            e.round for e in result.world.trace if e.kind == "reset" and e.round > merge_round
        )
        for e in result.world.trace:
            if e.robot in victims and e.kind == "move":
                assert not merge_round < e.round < reset_after


def test_high_degree_sweep_settles_cluster_fast():
    # the literal phase length min(m, k*delta, k^2) = 5 would cut this sweep
    # short; the knowledge override gives it one sufficient phase so the
    # sweep's own round envelope is what gets measured
    g = graphs.star(6)
    ids = [1, 2, 3, 4, 9]
    proto = make_protocol([ids], g, phase_len=25)
    result = run(g, {i: 1 for i in ids}, proto)
    assert result.dispersed
    assert result.rounds_elapsed <= 2 * 4 + 1  # out and back per port, plus the hub
    assert result.world.locations[1] == 1  # lowest id took the hub


def test_sweep_skips_occupied_neighbors():
    # one leaf pre-occupied by a same-cluster robot: the sweep settles only on
    # empty leaves and leaves the squatter untouched
    g = graphs.star(6)
    proto = make_protocol([[1, 2, 3], [9]], g)
    states = {
        1: fabricate(1, False, cid=3, priority=3, counter=proto.phase_len),
        2: fabricate(2, False, cid=3, priority=3, counter=proto.phase_len),
        3: fabricate(3, False, cid=3, priority=3, counter=proto.phase_len),
        9: fabricate(9, True, cid=3, priority=3, parent=1, cdr=1, counter=proto.phase_len),
    }
    world = WorldState(0, states, {1: 1, 2: 1, 3: 1, 9: 2}, {i: 0 for i in states})
    result = run(g, {}, proto, initial=world)
    assert result.dispersed
    assert result.world.locations[9] == 2  # untouched
    assert result.world.locations[1] == 1  # hub settled first


def test_sweep_aborts_on_higher_priority_settled_robot():
    # phase override as above: the abort-and-wait behavior is the target,
    # and the post-reset phases need room to finish the job
    g = graphs.star(6)
    proto = make_protocol([[1, 2, 3], [9]], g, phase_len=16)
    states = {
        1: fabricate(1, False, cid=3, priority=3, counter=proto.phase_len),
        2: fabricate(2, False, cid=3, priority=3, counter=proto.phase_len),
        3: fabricate(3, False, cid=3, priority=3, counter=proto.phase_len),
        9: fabricate(9, True, cid=9, priority=9, parent=1, cdr=1, counter=proto.phase_len),
    }
    world = WorldState(0, states, {1: 1, 2: 1, 3: 1, 9: 2}, {i: 0 for i in states})
    result = run(g, {}, proto, initial=world)
    # round 1 settles robot 1 at the hub and sends {2,3} out port 1, where
    # robot 9 outranks them: they wait out the phase, then finish after reset
    wait_round = next(
        e.round
        for e in result.world.trace
        if e.robot == 2 and e.kind == "wait" and e.payload.get("waiting")
    )
    first_reset = min(e.round for e in result.world.trace if e.kind == "reset")
    assert wait_round < first_reset
    for e in result.world.trace:
        if e.robot in (2, 3) and e.kind == "move":
            assert not wait_round < e.round < first_reset
    assert result.dispersed


def test_phase_loop_budget_over_random_schedules():
    g = graphs.ring(10)
    ids = list(range(1, 7))
    clusters = [[1, 2, 3], [4, 5, 6]]
    rng = random.Random(5)
    for _ in range(50):
        proto = make_protocol(clusters, g, faults=1)
        victim = rng.choice(ids)
        schedule = CrashSchedule.from_pairs([(victim, rng.randint(1, proto.round_budget))])
        result = run(g, {1: 1, 2: 1, 3: 1, 4: 6, 5: 6, 6: 6}, proto, schedule)
        assert result.dispersed
        assert result.rounds_elapsed <= (2 + 1 + 1) * proto.phase_len
        assert oracle.counter_disagreements(result.world.trace) == []
        assert oracle.cluster_count_regressions(result.world.trace, proto.phase_len) == []


def test_all_robots_crashing_terminates_vacuously():
    g = graphs.ring(6)
    proto = make_protocol([[1, 2], [3, 4]], g, faults=4)
    schedule = CrashSchedule.from_pairs([(i, 1) for i in (1, 2, 3, 4)])
    result = run(g, {1: 1, 2: 1, 3: 4, 4: 4}, proto, schedule)
    assert result.dispersed and result.alive_count == 0


def test_cluster_moves_as_one():
    # co-located unsettled robots with the same cluster id always share
    # counter/waiting state and take the same step
    g = graphs.random_connected(10, 15, 8)
    proto = make_protocol([[1, 2, 3], [4, 5, 6]], g, faults=1)
    schedule = CrashSchedule.from_pairs([(5, 7)])
    world = engine.initial_world(g, {1: 1, 2: 1, 3: 1, 4: 4, 5: 4, 6: 4}, proto)
    for _ in range(proto.round_budget):
        prev_groups = {}
        for rid, st in world.states.items():
            if st.alive and not st.settled:
                prev_groups.setdefault((world.locations[rid], st.core.cid), []).append(rid)
        world, _ = engine.step(world, g, proto, schedule)
        for (node, cid), members in prev_groups.items():
            alive = [r for r in members if world.states[r].alive]
            spots = {world.locations[r] for r in alive if not world.states[r].settled}
            assert len(spots) <= 1, f"cluster {cid} split across {spots}"
            flags = {
                (world.states[r].core.counter, world.states[r].core.waiting)
                for r in alive
                if not world.states[r].settled
            }
            assert len(flags) <= 1
        if not any(st.alive and not st.settled for st in world.states.values()):
            break
    assert engine.is_dispersed(world, g)


def test_counter_agreement_every_round():
    g = graphs.ring(9)
    proto = make_protocol([[1, 2, 3], [4, 5]], g, faults=1)
    schedule = CrashSchedule.from_pairs([(2, 4)])
    world = engine.initial_world(g, {1: 1, 2: 1, 3: 1, 4: 5, 5: 5}, proto)
    for _ in range(proto.round_budget):
        world, _ = engine.step(world, g, proto, schedule)
        counters = {st.core.counter for st in world.states.values() if st.alive}
        assert len(counters) == 1
        if not any(st.alive and not st.settled for st in world.states.values()):
            break


def test_crash_effects_confined_to_their_phase():
    # run A suffers a crash inside phase 0; rebuilding its configuration at
    # the phase boundary as a fresh start must reproduce the same outcome
    g = graphs.ring(6)
    clusters = [[1, 2, 3], [4, 5, 6]]
    proto = make_protocol(clusters, g, faults=1)
    schedule = CrashSchedule.from_pairs([(3, 2)])
    placement = {1: 1, 2: 1, 3: 1, 4: 4, 5: 4, 6: 4}
    world = engine.initial_world(g, placement, proto)
    for _ in range(proto.phase_len):
        world, _ = engine.step(world, g, proto, schedule)
    run_a = run(g, {}, proto, schedule, initial=world)

    # fresh start from the boundary configuration
    alive = {rid: st for rid, st in world.states.items() if st.alive}
    groups: dict[int, list[int]] = {}
    for rid, st in alive.items():
        if not st.settled:
            groups.setdefault(world.locations[rid], []).append(rid)
    fresh_clusters = [sorted(v) for _, v in sorted(groups.items())]
    proto_b = make_protocol(fresh_clusters or [[max(alive)]], g, faults=0)
    states_b = {}
    for rid, st in alive.items():
        if st.settled:
            states_b[rid] = fabricate(rid, True, counter=proto_b.phase_len)
        else:
            cid = max(groups[world.locations[rid]])
            states_b[rid] = fabricate(rid, False, cid=cid, priority=cid, counter=proto_b.phase_len)
    world_b = WorldState(
        0, states_b, {rid: world.locations[rid] for rid in alive}, {rid: 0 for rid in alive}
    )
    run_b = run(g, {}, proto_b, initial=world_b)

    final_a = {rid: run_a.world.locations[rid] for rid in alive}
    final_b = {rid: run_b.world.locations[rid] for rid in alive}
    assert run_a.dispersed and run_b.dispersed
    assert final_a == final_b


def test_every_two_cluster_placement_survives_any_single_crash():
    # exhaustive over start positions and crash schedules at half load
    import itertools

    for g in (graphs.ring(5), graphs.path(5), graphs.star(5)):
        n = g.node_count
        k = (n + 1) // 2
        ids = list(range(1, k + 1))
        groups = [ids[: k // 2 or 1], ids[k // 2 or 1:]]
        for a, b in itertools.permutations(range(1, n + 1), 2):
            placement = {**{r: a for r in groups[0]}, **{r: b for r in groups[1]}}
            factory = lambda groups=groups, g=g: ArbitraryDispersion(
                groups, g.edge_count, g.max_degree(), faults=1
            )
            fault_free = run(g, placement, factory())
            assert fault_free.dispersed, f"{a},{b} fault-free"
            horizon = fault_free.rounds_elapsed + factory().phase_len + 2
            report = oracle.enumerate_adversary(
                g, placement, factory, f=1,
                horizon=min(factory().round_budget, horizon),
            )
            assert report.failures == 0, f"{a},{b}: {report.failure_examples[:1]}"


def test_unknown_parameters_fallback_budget():
    g = graphs.random_connected(12, 18, 3)
    k = 6
    ids = list(range(1, k + 1))
    clusters = [ids[:3], ids[3:]]
    proto = make_protocol(clusters, g, faults=0, phase_len=k * k, num_phases=k + 1)
    assert proto.round_budget == (k + 1) * k * k
    result = run(g, {1: 1, 2: 1, 3: 1, 4: 7, 5: 7, 6: 7}, proto)
    assert result.dispersed
    assert result.rounds_elapsed <= (k + 1) * k * k


# -- phase roots ------------------------------------------------------------------------
# A crash delays a cluster so that it is still exploring when the phase ends.
# The settled robot it stands on then becomes the root of the new phase's DFS.
# Given the entry port as parent pointer, a cycle closing back through that
# port read as a return along a tree edge, and the cluster circled settled
# nodes without settling anyone until the budget ran out.


def _single_cluster_config(n: int, graph_seed: int, crashes: list) -> dict:
    return {
        "protocol": "arbitrary",
        "graph": {"generator": "random_connected", "n": n, "m": 2 * n, "seed": graph_seed},
        "robots": {"k": n // 2},
        "placement": {"clusters": [{"node": 1, "robots": list(range(1, n // 2 + 1))}]},
        "faults": {"schedule": crashes},
    }


def _corpus_instance(name: str, l: int):
    g = dict(oracle.standard_corpus())[name]
    ids = list(range(1, (g.node_count + 1) // 2 + 1))
    clusters = cli.default_clusters(g.node_count, ids, l)
    placement = {rid: node for node, grp in clusters for rid in grp}
    groups = [grp for _, grp in clusters]
    return g, placement, lambda: make_protocol(groups, g, faults=1)


@pytest.mark.parametrize(
    "n, graph_seed, crashes",
    [
        (100, 16, [[4, 270], [7, 12]]),
        (60, 3, [[13, 35], [27, 115]]),
        (20, 495, [[2, 8]]),
    ],
)
def test_phase_root_after_delayed_cluster_disperses(n, graph_seed, crashes):
    assert cli.run_config_dict(_single_cluster_config(n, graph_seed, crashes)).dispersed


def test_phase_root_with_early_crash_in_corpus_graph():
    for l in (1, 2):
        g, placement, factory = _corpus_instance("rand17m29s13", l)
        proto = factory()
        result = run(g, placement, proto, CrashSchedule.from_pairs([(1, 2)]))
        assert result.dispersed, f"l={l}"
        assert result.rounds_elapsed <= proto.round_budget


def test_single_crash_up_to_fault_free_stop_on_phase_root_graphs():
    for name in ("rand13m26s43", "rand17m29s13"):
        g, placement, factory = _corpus_instance(name, 1)
        phase_len = factory().phase_len
        stop = run(g, placement, factory()).rounds_elapsed

        def check(result, schedule):
            problems = []
            if oracle.counter_disagreements(result.world.trace):
                problems.append("counter disagreement")
            if oracle.cluster_count_regressions(result.world.trace, phase_len):
                problems.append("cluster count increased")
            return problems

        report = oracle.enumerate_adversary(g, placement, factory, f=1, horizon=stop, per_run_check=check)
        assert report.schedules_tested == len(placement) * stop
        assert report.failures == 0, f"{name}: {report.failure_examples[:1]}"


# -- fast paths: one core per transition, node facts once per node --------------------

CORE_FIELDS = [f.name for f in fields(ArbitraryCore)]
_small = st.integers(0, 40)
_FIELD_STRATEGIES = {
    "cid": st.none() | _small,
    "priority": st.none() | _small,
    "parent": st.none() | _small,
    "cdr": st.none() | _small,
    "cdr_used": st.booleans(),
    "subtree_done": st.booleans(),
    "counter": _small,
    "waiting": st.booleans(),
    "phase_index": _small,
    "forward": st.booleans(),
    "sweep_port": _small,
    "sweep_out": st.booleans(),
}
_field_values = st.fixed_dictionaries(_FIELD_STRATEGIES)


def test_field_strategy_covers_every_core_field():
    assert sorted(_FIELD_STRATEGIES) == sorted(CORE_FIELDS)


@settings(max_examples=300, deadline=None)
@given(_field_values, _field_values, st.sets(st.sampled_from(CORE_FIELDS)))
def test_evolve_equals_dataclasses_replace(base, other, changed):
    core = ArbitraryCore(**base)
    changes = {name: other[name] for name in changed}
    fast, slow = _evolve(core, changes), replace(core, **changes)
    assert type(fast) is ArbitraryCore
    assert fast == slow and hash(fast) == hash(slow) and repr(fast) == repr(slow)
    assert core == ArbitraryCore(**base)  # the source core is untouched
    with pytest.raises(FrozenInstanceError):
        fast.counter = 0


def test_node_facts_with_interleaved_nodes_match_a_fresh_protocol():
    # Round-robin clusters at three nodes: in id order consecutive robots sit
    # at different nodes.  Robots alternate between each node's tuple and an
    # equal copy of it, so the cache sees several live tuples of equal content.
    n, k, l = 30, 15, 3
    g = graphs.random_connected(n, 2 * n, 5)
    clusters = cli.default_clusters(n, list(range(1, k + 1)), l)
    groups = [grp for _, grp in clusters]
    shared = make_protocol(groups, g)
    world = engine.initial_world(g, {rid: v for v, grp in clusters for rid in grp}, shared)
    crowded_rounds = 0
    while not engine.is_dispersed(world, g):
        assert world.round < shared.round_budget
        by_node: dict[int, list[RobotState]] = {}
        for rid in sorted(world.states):
            by_node.setdefault(world.locations[rid], []).append(world.states[rid])
        tuples = {v: tuple(grp) for v, grp in by_node.items()}
        copies = {v: tuple(grp) for v, grp in by_node.items()}
        crowded = [v for v, grp in by_node.items() if sum(not s.settled for s in grp) > 1]
        crowded_rounds += len(crowded) > 1
        for i, rid in enumerate(sorted(world.states)):
            v = world.locations[rid]
            view = LocalView(g.degree(v), world.entry_ports[rid], (copies if i % 2 else tuples)[v])
            state = world.states[rid]
            assert shared.transition(state, view) == make_protocol(groups, g).transition(state, view)
        assert len(shared._facts) <= k
        world, _ = engine.step(world, g, shared, CrashSchedule())
    assert crowded_rounds > 0


def _documented_bits(k, delta, m, l, f):
    """Per-field widths of the clustered protocol's state: ids in [0, k],
    ports in [0, delta+1] (0 = null), the counter in [0, phase_len] and
    the phase index in [0, phases+1]."""
    phase_len = min(m, k * delta, k * k)
    a = ceil(log2(k + 1))
    b = ceil(log2(delta + 2))
    widths = {
        "cid": a,
        "priority": a,
        "parent": b,
        "cdr": b,
        "cdr_used": 1,
        "subtree_done": 1,
        "counter": ceil(log2(phase_len + 1)),
        "waiting": 1,
        "phase_index": ceil(log2(l + f + 1 + 2)),
        "forward": 1,
        "sweep_port": b,
        "sweep_out": 1,
    }
    assert sorted(widths) == sorted(CORE_FIELDS)
    return a + 1 + sum(widths.values())  # plus the id and the settled flag


@pytest.mark.parametrize(
    "k, delta, m, l, f, bits",
    [(5, 2, 8, 1, 0, 27), (12, 3, 20, 3, 2, None), (30, 7, 60, 6, 2, None), (100, 15, 400, 4, 9, None)],
)
def test_memory_bits_documented_encoding(k, delta, m, l, f, bits):
    ids = list(range(1, k + 1))
    proto = ArbitraryDispersion([ids[i::l] for i in range(l)], m, delta, faults=f)
    expected = _documented_bits(k, delta, m, l, f)
    assert bits is None or expected == bits
    c = proto.phase_len
    settled = fabricate(1, True, cid=k, priority=k, parent=delta, cdr=delta, cdr_used=True, counter=c - 1)
    waiting = fabricate(2, False, cid=k, priority=k, waiting=True, counter=1, phase_index=l + f)
    sweeping = fabricate(3, False, cid=k, priority=k, sweep_port=delta, sweep_out=True, counter=c)
    just_reset = RobotState(1, True, True, proto.transition(
        fabricate(1, True, cid=k, priority=k, counter=0), LocalView(delta, 0, ())
    ).core)
    assert just_reset.core.phase_index == 1 and just_reset.core.cid is None
    for state in (settled, waiting, sweeping, just_reset):
        assert proto.memory_bits(state) == expected
