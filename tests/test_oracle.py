"""Ground-truth checkers: reference DFS, bounds, monitors, enumeration."""

from __future__ import annotations

import pytest

from dispersim import graph as graphs, oracle
from dispersim.arbitrary import ArbitraryDispersion
from dispersim.engine import CrashSchedule, TraceEvent, run
from dispersim.rooted import RootedDispersion


# -- reference DFS -----------------------------------------------------------------


def test_reference_first_k_on_ring():
    g = graphs.ring(5)
    assert oracle.reference_first_k(g, 1, 3) == {1, 2, 3}  # ascending ports walk one way


def test_reference_full_visit_is_permutation():
    for g in (graphs.ring(7), graphs.star(6), graphs.complete(5), graphs.random_connected(11, 19, 2)):
        order = oracle.reference_dfs_order(g, 1)
        assert sorted(order) == list(g.nodes())


def test_reference_matches_fault_free_simulation():
    g = graphs.random_connected(12, 18, 5)
    ids = list(range(1, 8))
    protocol = RootedDispersion(ids, g.max_degree())
    result = run(g, {i: 1 for i in ids}, protocol)
    settled = {result.world.locations[r] for r in ids}
    assert settled == oracle.reference_first_k(g, 1, 7)


def test_reference_rejects_oversized_k():
    with pytest.raises(oracle.OracleError):
        oracle.reference_first_k(graphs.ring(4), 1, 5)


# -- bounds ------------------------------------------------------------------------


def test_round_bound_arithmetic():
    g = graphs.ring(4)
    ids = list(range(1, 5))
    protocol = RootedDispersion(ids, g.max_degree())
    assert protocol.round_budget == 7 * 16
    result = run(g, {i: 1 for i in ids}, protocol)
    report = oracle.check_bounds(result, protocol, 4, g.max_degree())
    assert report.ok and report.rounds <= 112

    single = RootedDispersion([1], 2)
    assert single.round_budget == 7


def test_memory_envelope_values():
    assert oracle.memory_envelope(8, 3) == 4 * (4 + 3) + 16
    assert oracle.memory_envelope(1, 1) == 4 * (1 + 2) + 16


def test_check_bounds_flags_violations():
    g = graphs.ring(4)
    ids = [1, 2]
    protocol = RootedDispersion(ids, g.max_degree())
    result = run(g, {i: 1 for i in ids}, protocol)
    # shrink the claimed budget artificially to force a violation report
    protocol.round_budget = 1
    report = oracle.check_bounds(result, protocol, 2, g.max_degree())
    assert not report.ok and any("rounds" in v for v in report.violations)


# -- monitors -----------------------------------------------------------------------


def test_one_mover_clean_on_fault_free_suite():
    for g in (graphs.ring(6), graphs.star(5), graphs.complete(5)):
        ids = list(range(1, g.node_count + 1))
        protocol = RootedDispersion(ids, g.max_degree())
        result = run(g, {i: 1 for i in ids}, protocol)
        assert oracle.one_mover_violations(result.world.trace) == []


def test_one_mover_detects_synthetic_violation():
    trace = [
        TraceEvent(3, 1, "move", {"mode": "descend", "node": 1, "entry": 0}),
        TraceEvent(3, 2, "move", {"mode": "forward", "node": 2, "entry": 1}),
    ]
    assert oracle.one_mover_violations(trace) == [3]


def test_one_mover_count_drops_when_mover_crashes():
    g = graphs.ring(6)
    ids = [1, 2, 3]
    protocol = RootedDispersion(ids, g.max_degree())
    schedule = CrashSchedule.from_pairs([(2, 3)])
    result = run(g, {i: 1 for i in ids}, protocol, schedule)
    assert oracle.one_mover_violations(result.world.trace) == []
    movers_round3 = [
        e for e in result.world.trace
        if e.round == 3 and e.kind == "move"
    ]
    assert movers_round3 == []  # the only mover crashed at the round start


def test_loop_monitor_detects_synthetic_repeat():
    snap = {"parent": 1, "cdr": 2, "used": True, "done": False}
    ev = lambda rnd: TraceEvent(
        rnd, 4, "move", {"mode": "descend", "node": 7, "entry": 1, "rsr": rnd, "at": snap}
    )
    assert oracle.loop_violations([ev(2), ev(3)]) == [(4, 3)]
    # a fresh epoch clears the memory of configurations
    fresh = TraceEvent(4, 4, "move", {"mode": "descend", "node": 1, "entry": 0, "rsr": 1})
    assert oracle.loop_violations([ev(2), fresh, ev(5)]) == []


def test_counter_disagreement_monitor():
    ok = [
        TraceEvent(1, 1, "wait", {"counter": 5}),
        TraceEvent(1, 2, "move", {"counter": 5}),
        TraceEvent(2, 1, "wait", {"counter": 4}),
    ]
    assert oracle.counter_disagreements(ok) == []
    bad = ok + [TraceEvent(2, 2, "move", {"counter": 9})]
    assert oracle.counter_disagreements(bad) == [2]


def test_cluster_count_monitor_detects_synthetic_increase():
    L = 4
    mk = lambda rnd, rid, cid: TraceEvent(rnd, rid, "wait", {"cid": cid, "counter": 0})
    trace = [mk(1, 1, 10), mk(1, 2, 10), mk(L + 1, 1, 10), mk(L + 1, 2, 22)]
    assert oracle.cluster_count_regressions(trace, L) == [1]


# -- monitors as folds --------------------------------------------------------------------


def _rooted_fold_cases():
    cases = {}
    for name, g in oracle.standard_corpus(max_n=8):
        ids = list(range(1, g.node_count + 1))
        factory = lambda ids=ids, g=g: RootedDispersion(ids, g.max_degree())
        crashes = CrashSchedule.from_pairs([(ids[-1], 2), (ids[len(ids) // 2], 9)][: len(ids) - 1])
        cases[f"rooted-{name}-faultfree"] = (g, {i: 1 for i in ids}, factory, CrashSchedule())
        cases[f"rooted-{name}-crashes"] = (g, {i: 1 for i in ids}, factory, crashes)
    # criterion 3's trial 58: robot 13 loops, and two robots are off base at once
    g = graphs.random_connected(14, 40, 27)
    ids = list(range(1, 15))
    crashes = [(2, 482), (4, 1269), (5, 687), (6, 582), (8, 1056), (9, 192), (10, 1350), (11, 174), (13, 1360),
               (14, 1297)]
    factory = lambda: RootedDispersion(ids, g.max_degree())
    cases["rooted-trial58"] = (g, {i: 1 for i in ids}, factory, CrashSchedule.from_pairs(crashes))
    return cases


def _arbitrary_fold_cases():
    g = graphs.random_connected(20, 40, 495)
    ids = list(range(1, 11))
    factory = lambda: ArbitraryDispersion([ids], g.edge_count, g.max_degree(), faults=1)
    cases = {"arbitrary-n20s495": (g, {i: 1 for i in ids}, factory, CrashSchedule.from_pairs([(2, 8)]))}
    g17 = dict(oracle.standard_corpus())["rand17m29s13"]
    for l in (1, 2):
        factory, placement = oracle._default_clustered(g17, 9, l, 1)
        cases[f"arbitrary-rand17m29s13-l{l}"] = (g17, placement, factory, CrashSchedule.from_pairs([(1, 2)]))
    return cases


FOLD_CASES = {**_rooted_fold_cases(), **_arbitrary_fold_cases()}


@pytest.mark.parametrize("label", sorted(FOLD_CASES))
def test_folds_fed_chunk_by_chunk_match_the_list_monitors(label):
    g, placement, factory, schedule = FOLD_CASES[label]
    kept = run(g, placement, factory(), schedule)
    trace = kept.world.trace
    protocol = factory()
    if isinstance(protocol, RootedDispersion):
        folds = [oracle.OneMoverFold(), oracle.LoopFold(), oracle.RetreatFold(protocol.rank)]
        expected = [
            oracle.one_mover_violations(trace),
            oracle.loop_violations(trace),
            oracle.retreat_violations(trace, protocol.rank),
        ]
    else:
        folds = [oracle.CounterFold(), oracle.ClusterCountFold(protocol.phase_len)]
        expected = [oracle.counter_disagreements(trace), oracle.cluster_count_regressions(trace, protocol.phase_len)]

    def feed(events, lines):
        for fold in folds:
            fold.feed(events)

    # the first half of the rounds arrives as one chunk: the initial world's trace
    head = run(g, placement, protocol, schedule, max_rounds=kept.rounds_elapsed // 2)
    streamed = run(g, placement, protocol, schedule, initial=head.world, trace_out=feed)
    assert streamed.trace_hash == kept.trace_hash
    found = [fold.found for fold in folds]
    if isinstance(folds[-1], oracle.RetreatFold):
        found[-1] = sorted(found[-1])
    assert found == expected
    if label == "rooted-trial58":
        assert expected[0] and expected[1]


# -- exhaustive adversary ----------------------------------------------------------------


def test_enumeration_size_and_outcomes():
    g = graphs.ring(4)
    ids = [1, 2, 3]
    factory = lambda: RootedDispersion(ids, g.max_degree())
    report = oracle.enumerate_adversary(g, {i: 1 for i in ids}, factory, f=1, horizon=63)
    assert report.schedules_tested == 3 * 63
    assert report.failures == 0
    assert report.max_rounds <= 63


def test_enumeration_f_zero_is_single_run():
    g = graphs.ring(4)
    ids = [1, 2]
    factory = lambda: RootedDispersion(ids, g.max_degree())
    report = oracle.enumerate_adversary(g, {i: 1 for i in ids}, factory, f=0)
    assert report.schedules_tested == 1
    plain = run(g, {i: 1 for i in ids}, factory())
    assert report.max_rounds == plain.rounds_elapsed
    assert report.worst_trace_hash == plain.trace_hash


def test_enumeration_cap_enforced():
    g = graphs.ring(4)
    ids = list(range(1, 4))
    factory = lambda: RootedDispersion(ids, g.max_degree())
    with pytest.raises(oracle.EnumerationTooLarge):
        oracle.enumerate_adversary(g, {i: 1 for i in ids}, factory, f=2, cap=100)


def test_enumeration_report_is_deterministic():
    g = graphs.path(4)
    ids = [1, 2, 3]
    factory = lambda: RootedDispersion(ids, g.max_degree())
    a = oracle.enumerate_adversary(g, {i: 1 for i in ids}, factory, f=1, horizon=20)
    b = oracle.enumerate_adversary(g, {i: 1 for i in ids}, factory, f=1, horizon=20)
    assert a.to_json() == b.to_json()


def test_report_json_fields():
    g = graphs.path(3)
    ids = [1, 2]
    factory = lambda: RootedDispersion(ids, g.max_degree())
    report = oracle.enumerate_adversary(g, {i: 1 for i in ids}, factory, f=1, horizon=5)
    import json

    decoded = json.loads(report.to_json())
    assert set(decoded) == {
        "schedules_tested", "failures", "max_rounds", "max_memory_bits", "worst_trace_hash",
    }


def test_fuzz_500_random_rooted_trials_stay_in_bounds():
    import random

    rng = random.Random(99)
    failures = 0
    for _ in range(500):
        n = rng.randint(3, 14)
        m = rng.randint(n - 1, min(28, n * (n - 1) // 2))
        g = graphs.random_connected(n, m, rng.randrange(10**6))
        k = rng.randint(1, n)
        ids = list(range(1, k + 1))
        protocol = RootedDispersion(ids, g.max_degree())
        schedule = CrashSchedule()
        if k > 1 and rng.random() < 0.7:
            f = rng.randint(1, k - 1)
            victims = rng.sample(ids, f)
            schedule = CrashSchedule.from_pairs(
                [(v, rng.randint(1, protocol.round_budget)) for v in victims]
            )
        result = run(g, {i: 1 for i in ids}, protocol, schedule)
        if not oracle.check_bounds(result, protocol, k, g.max_degree()).ok:
            failures += 1
    assert failures == 0


def test_exhaustive_double_crash_small_instances():
    # every (victims, rounds) pair for f=2 on a few small graphs; the horizon
    # is clipped to the fault-free finish plus slack since later crashes are
    # no-ops
    for g in (graphs.ring(4), graphs.path(5), graphs.star(4), graphs.complete(4)):
        k = 3
        ids = [1, 2, 3]
        factory = lambda ids=ids, g=g: RootedDispersion(ids, g.max_degree())
        fault_free = run(g, {i: 1 for i in ids}, factory())
        horizon = fault_free.rounds_elapsed + 12

        def check(result, schedule):
            problems = []
            if oracle.one_mover_violations(result.world.trace):
                problems.append("one-mover")
            if oracle.loop_violations(result.world.trace):
                problems.append("loop")
            return problems

        report = oracle.enumerate_adversary(
            g, {i: 1 for i in ids}, factory, f=2, horizon=horizon, per_run_check=check
        )
        assert report.failures == 0
        assert report.schedules_tested == 3 * horizon**2


def test_corpus_is_deterministic_and_in_bounds():
    a = oracle.standard_corpus()
    b = oracle.standard_corpus()
    assert [name for name, _ in a] == [name for name, _ in b]
    for name, g in a:
        assert g.node_count <= 20 and g.edge_count <= 40
    assert all(g.node_count <= 6 for _, g in oracle.standard_corpus(max_n=6))


@pytest.mark.parametrize("max_n", [4, 6, 8, 12])
def test_corpus_builds_only_the_graphs_it_returns(monkeypatch, max_n):
    full = oracle.standard_corpus()
    built = []

    def recording(make):
        def build(*params):
            built.append(make(*params))
            return built[-1]

        return build

    for name in ("ring", "path", "complete", "star", "random_connected"):
        monkeypatch.setattr(oracle.graphs, name, recording(getattr(oracle.graphs, name)))
    assert oracle.standard_corpus(max_n=max_n) == [(name, g) for name, g in full if g.node_count <= max_n]
    assert all(g.node_count <= max_n for g in built)
