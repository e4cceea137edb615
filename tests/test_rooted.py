"""Rooted protocol: release policy, DFS pointer rules, budgets, repair."""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersim import graph as graphs, oracle
from dispersim.engine import STAY, CrashSchedule, LocalView, RobotState, Write, run
from dispersim.rooted import (
    AT_ROOT,
    BOUNCE,
    DESCEND,
    PROBE,
    REPAIR,
    RETREAT,
    SETTLED,
    RootedCore,
    RootedDispersion,
    dfs_step,
)


def rooted_run(g, k, schedule=None, ids=None, root=1):
    ids = ids or list(range(1, k + 1))
    protocol = RootedDispersion(ids, g.max_degree())
    return run(g, {i: root for i in ids}, protocol, schedule), protocol


# -- release policy --------------------------------------------------------------


def test_single_robot_settles_at_root_round_one():
    result, _ = rooted_run(graphs.ring(4), 1)
    assert result.rounds_elapsed == 1 and result.dispersed
    core = result.world.states[1].core
    assert core.parent is None and core.cdr == 1


def test_ring3_departure_and_dispersion():
    result, protocol = rooted_run(graphs.ring(3), 3)
    assert result.dispersed
    assert result.rounds_elapsed <= 7 * 9
    assert result.rounds_elapsed == 10  # frozen from the verified trace
    first = next(e for e in result.world.trace if e.robot == 2 and e.kind == "move")
    assert first.round == 2 and first.payload["port"] == 1
    settled = {result.world.locations[r] for r in (1, 2, 3)}
    assert settled == oracle.reference_first_k(graphs.ring(3), 1, 3)


def test_crashed_mover_is_succeeded_at_next_boundary():
    # robot 2's epoch is rounds 2..7; it crashes mid-flight, so robot 3
    # departs at the boundary round 8 and finishes the job
    g = graphs.ring(6)
    result, _ = rooted_run(g, 3, CrashSchedule.from_pairs([(2, 3)]))
    assert result.dispersed
    first3 = next(e for e in result.world.trace if e.robot == 3 and e.kind == "move")
    assert first3.round == 8 and first3.payload["rsr"] == 1


def test_returned_robot_departs_again_with_persistent_progress():
    # deterministic fault-free config in which explorers exhaust their budget,
    # report back, and are re-sent ("resends r_i")
    g = graphs.random_connected(7, 10, 20)
    result, protocol = rooted_run(g, 7)
    assert result.dispersed
    retreats = [e for e in result.world.trace if e.kind == "move" and e.payload.get("mode") == "retreat"]
    assert retreats, "scenario must exercise the report-back path"
    redeparts = [
        e
        for e in result.world.trace
        if e.kind == "move" and e.payload.get("rsr") == 1 and e.round > 2
    ]
    assert redeparts, "a reporting robot must be re-sent at an epoch boundary"
    assert oracle.retreat_violations(result.world.trace, protocol.rank) == []


# -- dfs_step unit rules ------------------------------------------------------------


def test_dfs_backtrack_when_ports_exhausted():
    outcome, port, changes = dfs_step((1, 2, True, False), degree=2, entry_port=2,
                                      arrived_forward=False, at_root_marker=False)
    assert port == 1
    assert changes == {"subtree_done": True}


def test_dfs_advances_to_next_unexplored_port():
    outcome, port, changes = dfs_step((1, 2, True, False), degree=3, entry_port=2,
                                      arrived_forward=False, at_root_marker=False)
    assert port == 3
    assert changes == {"cdr": 3, "cdr_used": True}
    assert outcome == PROBE


def test_dfs_fresh_descent_marks_pointer_used():
    outcome, port, changes = dfs_step((1, 2, False, False), degree=3, entry_port=1,
                                      arrived_forward=False, at_root_marker=False)
    assert port == 2 and changes == {"cdr_used": True} and outcome == PROBE


def test_dfs_retrace_through_used_pointer():
    outcome, port, changes = dfs_step((1, 2, True, False), degree=3, entry_port=1,
                                      arrived_forward=False, at_root_marker=False)
    assert port == 2 and changes == {} and outcome != PROBE


def test_dfs_forward_probe_bounces_off_occupied_node():
    outcome, port, changes = dfs_step((1, 3, True, False), degree=3, entry_port=2,
                                      arrived_forward=True, at_root_marker=False)
    assert outcome == BOUNCE and port == 2 and changes == {}


def test_dfs_leaf_is_marked_exhausted():
    outcome, port, changes = dfs_step((1, 1, False, False), degree=1, entry_port=1,
                                      arrived_forward=False, at_root_marker=False)
    assert port == 1 and changes == {"subtree_done": True}


def test_dfs_unexpected_arrival_triggers_repair():
    outcome, port, changes = dfs_step((2, 1, False, False), degree=3, entry_port=3,
                                      arrived_forward=False, at_root_marker=False)
    assert outcome == REPAIR and port is None
    assert changes == {"parent": 3, "cdr": 1, "cdr_used": False, "subtree_done": False}


def test_dfs_never_rewrites_root_parent():
    outcome, port, changes = dfs_step((None, 1, True, False), degree=3, entry_port=2,
                                      arrived_forward=False, at_root_marker=True)
    assert "parent" not in changes


def test_dfs_step_table_over_every_small_input():
    # every input with degree <= 4, pointers in [None, 0..degree+1], both
    # values of each flag and each entry port: (outcome, port, sorted changes)
    rows = []
    for degree in range(1, 5):
        ports = [None, *range(degree + 2)]
        for pointers in itertools.product(ports, ports, (False, True), (False, True)):
            for entry, forward, at_root in itertools.product(range(degree + 1), (False, True), (False, True)):
                outcome, port, changes = dfs_step(pointers, degree, entry, forward, at_root)
                rows.append([[*pointers, degree, entry, forward, at_root], [outcome, port, sorted(changes.items())]])
    assert len(rows) == 7936
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "c618f5c5fddda7e9647803ba1faafc4db252a84ad3ffacf2414e9945f26512e2"


# -- transitions on hand-built states ---------------------------------------------------


def _robot(rid, settled=False, **core):
    return RobotState(rid, True, settled, RootedCore(**core))


def test_travellers_where_another_robot_settles():
    # Robot 1 of the pool settles on the root, whose settled robot crashed.
    # The pool freezes its counters; a retreater arriving at the root joins
    # it with those counters, and a traveller elsewhere stays as it is.
    proto = RootedDispersion([1, 2, 3, 4], max_degree=3)
    pool = [_robot(1, active_rank=3, epoch_clock=4), _robot(2, active_rank=3, epoch_clock=4)]
    retreater = _robot(3, mode=RETREAT, rounds_out=5)
    here = (*pool, retreater)
    assert proto.transition(pool[1], LocalView(2, 0, here)).core == pool[1].core
    dec = proto.transition(retreater, LocalView(2, 1, here))
    assert (dec.action, dec.writes, dec.note) == (STAY, (), {"mode": AT_ROOT, "rejoined": True})
    assert dec.core == RootedCore(mode=AT_ROOT, rounds_out=0, active_rank=3, epoch_clock=4)

    # away from the root, robot 2 settles and robots 3 and 4 keep their cores
    here = (_robot(2, mode=DESCEND, rounds_out=2), retreater, _robot(4, mode=DESCEND, rounds_out=1))
    for traveller in here[1:]:
        dec = proto.transition(traveller, LocalView(2, 1, here))
        assert (dec.core, dec.action, dec.writes) == (traveller.core, STAY, ())
        assert dec.note == {"mode": traveller.core.mode, "rsr": traveller.core.rounds_out}


@pytest.mark.parametrize("epoch_clock, counters", [(5, (2, 6)), (6, (3, 1))])
def test_expired_explorer_back_at_the_root_rejoins_the_pool(epoch_clock, counters):
    # Robot 2 (rank 2, budget 3 rounds out) returns to the root through its
    # used pointer in its fourth round: it resolves the pointer and rejoins
    # the pool, whose counters it takes one round on.  At epoch clock 6
    # rank 2's epoch of 3 * 2 rounds is over and rank 3 is released.
    proto = RootedDispersion([1, 2, 3], max_degree=2)
    root = _robot(1, settled=True, mode=SETTLED, cdr=1, cdr_used=True)
    explorer = _robot(2, mode=DESCEND, rounds_out=3)
    here = (root, explorer, _robot(3, active_rank=2, epoch_clock=epoch_clock))
    dec = proto.transition(explorer, LocalView(2, 1, here))
    assert (dec.action, dec.writes) == (STAY, (Write(1, "cdr", 2), Write(1, "cdr_used", False)))
    assert dec.note == {"mode": AT_ROOT, "rejoined": True, "rsr": 4}
    ar, ec = counters
    assert dec.core == RootedCore(mode=AT_ROOT, rounds_out=0, active_rank=ar, epoch_clock=ec)


# -- cycle avoidance ------------------------------------------------------------------


def test_complete_graph_bounce_and_no_loops():
    # K4 with k=4 forces a cycle-closing probe: the explorer bounces, nothing
    # loops, and the settled set matches the reference DFS
    g = graphs.complete(4)
    result, protocol = rooted_run(g, 4)
    assert result.dispersed
    bounces = [e for e in result.world.trace if e.kind == "move" and e.payload.get("bounce")]
    assert bounces
    assert oracle.loop_violations(result.world.trace) == []
    assert oracle.one_mover_violations(result.world.trace) == []
    settled = {result.world.locations[r] for r in range(1, 5)}
    assert settled == oracle.reference_first_k(g, 1, 4)


# -- explorer budget -------------------------------------------------------------------


def test_ring4_second_robot_settles_quickly():
    result, _ = rooted_run(graphs.ring(4), 2)
    settle2 = next(e for e in result.world.trace if e.robot == 2 and e.kind == "settle")
    assert settle2.payload["rsr"] == 2  # one hop out, one observation round
    assert settle2.payload["rsr"] <= 2 * 2


def test_path_frontier_always_within_budget():
    # on a path the frontier sits at distance rank-1, well inside the budget,
    # so nobody ever reports back
    g = graphs.path(20)
    result, _ = rooted_run(g, 6)
    assert result.dispersed
    assert not any(e.kind == "move" and e.payload.get("mode") == "retreat" for e in result.world.trace)
    assert {result.world.locations[r] for r in range(1, 7)} == oracle.reference_first_k(g, 1, 6)


def test_settler_never_enters_retreat():
    # a robot that settles never has a retreat move afterwards
    g = graphs.complete(5)
    result, _ = rooted_run(g, 5)
    settle_round = {e.robot: e.round for e in result.world.trace if e.kind == "settle"}
    for e in result.world.trace:
        if e.kind == "move" and e.payload.get("mode") == "retreat":
            assert e.round < settle_round.get(e.robot, 10**9)


# -- repair ------------------------------------------------------------------------------


def test_crash_replacement_repair_scenario():
    # star(6) rooted at leaf 2: the center settler (robot 2) crashes while
    # robot 5 walks back, so robot 5 refills the center with its parent aimed
    # away from the root; robot 6 detects the mismatch and resets the pointers
    g = graphs.star(6)
    schedule = CrashSchedule.from_pairs([(2, 31)])
    result, protocol = rooted_run(g, 6, schedule, root=2)
    repairs = [e for e in result.world.trace if e.kind == "repair"]
    assert [(e.round, e.robot, e.payload["target"]) for e in repairs] == [(45, 6, 5)]
    assert repairs[0].payload["parent"] == 1  # reset toward the true root
    assert result.dispersed
    assert oracle.one_mover_violations(result.world.trace) == []
    assert oracle.loop_violations(result.world.trace) == []
    # replacement sits at the center, everyone alive is placed
    assert result.world.locations[5] == 1


def test_fault_free_runs_contain_no_repairs():
    for g in (graphs.ring(8), graphs.complete(5), graphs.star(7), graphs.random_connected(12, 22, 9)):
        result, _ = rooted_run(g, (g.node_count + 1) // 2)
        assert not any(e.kind == "repair" for e in result.world.trace)


def test_crash_delay_is_linear_in_k():
    # paired comparison: one crash costs at most a linear number of rounds
    g = graphs.star(6)
    faulty, _ = rooted_run(g, 6, CrashSchedule.from_pairs([(2, 31)]), root=2)
    clean, _ = rooted_run(g, 6, root=2)
    assert faulty.dispersed and clean.dispersed
    assert faulty.rounds_elapsed - clean.rounds_elapsed <= 7 * 6


# -- invariants over a mixed campaign --------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_one_mover_and_progress_under_crashes(seed):
    import random

    rng = random.Random(seed)
    g = graphs.random_connected(10, 16, seed)
    k = rng.randint(3, 8)
    ids = list(range(1, k + 1))
    protocol = RootedDispersion(ids, g.max_degree())
    f = rng.randint(0, k - 1)
    victims = rng.sample(ids, f)
    schedule = CrashSchedule.from_pairs(
        [(v, rng.randint(1, protocol.round_budget)) for v in victims]
    )
    result = run(g, {i: 1 for i in ids}, protocol, schedule)
    assert result.dispersed
    assert result.rounds_elapsed <= protocol.round_budget
    assert oracle.one_mover_violations(result.world.trace) == []
    assert oracle.loop_violations(result.world.trace) == []


def test_settled_robots_never_move_again():
    g = graphs.complete(5)
    result, _ = rooted_run(g, 5)
    settle_round = {e.robot: e.round for e in result.world.trace if e.kind == "settle"}
    for e in result.world.trace:
        if e.kind == "move":
            assert e.round <= settle_round.get(e.robot, 10**9)


def test_every_root_choice_works():
    # the start node is arbitrary: fault-free equivalence with the reference
    # DFS and exhaustive single-crash coverage from every possible root
    for g in (graphs.ring(5), graphs.path(4), graphs.star(4), graphs.complete(4)):
        for root in g.nodes():
            ids = [1, 2, 3]
            factory = lambda ids=ids, g=g: RootedDispersion(ids, g.max_degree())
            ff = run(g, {i: root for i in ids}, factory())
            assert ff.dispersed
            assert {ff.world.locations[r] for r in ids} == oracle.reference_first_k(g, root, 3)
            report = oracle.enumerate_adversary(
                g, {i: root for i in ids}, factory, f=1, horizon=ff.rounds_elapsed + 10,
                per_run_check=lambda result, schedule: oracle.run_monitors(result, factory(), g),
            )
            assert report.failures == 0


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(4, 10),
    extra=st.integers(0, 8),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_property_dispersion_under_any_single_crash(n, extra, seed, data):
    m = min(n - 1 + extra, n * (n - 1) // 2)
    g = graphs.random_connected(n, m, seed)
    k = data.draw(st.integers(1, n), label="k")
    ids = list(range(1, k + 1))
    protocol = RootedDispersion(ids, g.max_degree())
    schedule = CrashSchedule()
    if k > 1:
        victim = data.draw(st.integers(1, k), label="victim")
        crash_round = data.draw(st.integers(1, protocol.round_budget), label="round")
        schedule = CrashSchedule.from_pairs([(victim, crash_round)])
    result = run(g, {i: 1 for i in ids}, protocol, schedule)
    assert result.dispersed
    assert result.rounds_elapsed <= protocol.round_budget
    assert oracle.one_mover_violations(result.world.trace) == []
    assert oracle.loop_violations(result.world.trace) == []


# ROADMAP item 1: the rooted crash repair rebuilds a node's pointers from its
# entry port alone, so one crash can leave these runs undispersed within the
# 7k^2 budget.  Each runs random_connected(n, m, seed) with k = n from root 1.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1: rooted crash repair is unsound under one crash")
@pytest.mark.parametrize(
    "n, m, seed, crash",
    [
        (7, 9, 3, (1, 33)),  # the root's robot crashes; the pool waits at an exhausted root
        (9, 13, 5, (2, 89)),  # a re-settle closes a parent-pointer cycle
        (14, 40, 27, (11, 174)),  # a repair re-parents an ancestor under its descendant
    ],
)
def test_single_crash_disperses_item_1(n, m, seed, crash):
    result, _ = rooted_run(graphs.random_connected(n, m, seed), n, CrashSchedule.from_pairs([crash]))
    assert result.dispersed
