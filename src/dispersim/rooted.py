"""Single-root crash-fault dispersion.

All robots start on one node.  The lowest-ranked robot settles there; the
rest are released one at a time.  The robot of rank i gets epochs of 3i
rounds: up to 2i rounds to reach an empty node by following the settled
robots' direction pointers, then i rounds to walk parent pointers home if it
failed.  Waiting robots replicate the release bookkeeping, so a robot that
goes silent (settled or crashed) is simply succeeded at the next epoch
boundary.  A traveller that finds a settled robot whose pointers contradict
its approach concludes a crash happened there and resets those pointers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil, log2

from .engine import MOVE, SETTLE, STAY, Decision, LocalView, RobotState, Write

AT_ROOT = "at_root"
DESCEND = "descend"
FORWARD = "forward"
RETREAT = "retreat"
SETTLED = "settled"

MOVER_MODES = (DESCEND, FORWARD, RETREAT)


@dataclass(frozen=True)
class RootedCore:
    """Persistent per-robot protocol fields (see memory_bits for the encoding)."""

    mode: str = AT_ROOT
    parent: int | None = None
    cdr: int | None = None
    cdr_used: bool = False
    subtree_done: bool = False
    rounds_out: int = 0
    # release bookkeeping, meaningful while waiting at the root
    active_rank: int = 0
    epoch_clock: int = 0


# dfs_step outcomes
GO = "go"  # leave through the port, over an edge already in the DFS tree
PROBE = "probe"  # leave through the port, traversing that edge for the first time
BOUNCE = "bounce"  # a probe met an occupied node: go back through the entry port
REPAIR = "repair"  # the pointers contradict the approach: rewrite them, stay
STUCK = "stuck"  # exhausted node with no parent to climb to: stay


def dfs_step(pointers, degree: int, entry_port: int, arrived_forward: bool, at_root_marker: bool):
    """Route a traveller through a node that hosts a settled robot.

    ``pointers`` is the settled robot's ``(parent, cdr, cdr_used,
    subtree_done)``.  ``arrived_forward`` is the traveller's own knowledge
    that its last hop was the first traversal of that edge; it disambiguates
    a genuine return through the direction pointer from a cycle closing onto
    the same port.  Returns ``(outcome, exit port, changes)``: one of the
    five outcomes above, the port to leave through (None for REPAIR and
    STUCK) and the pointer updates owed to the settled robot.
    """
    parent, cdr, cdr_used, subtree_done = pointers
    if degree == 1 and parent is not None:
        # leaf: nothing beyond it, mark exhausted and send the traveller back
        return GO, parent, {} if subtree_done else {"subtree_done": True}

    if arrived_forward and entry_port != 0 and entry_port != parent:
        # A fresh probe reached an occupied node: bounce straight back and
        # alter nothing; the return through the probing pointer advances it.
        # Entering through the parent port instead proves the probe edge was
        # an old tree edge whose memory a crash destroyed, so fall through
        # and navigate by the settled robot's pointers.
        return BOUNCE, entry_port, {}

    if subtree_done:
        if parent is None:
            return STUCK, None, {}
        return GO, parent, {}

    well_formed = cdr is not None and 1 <= cdr <= degree and (parent is None or 1 <= parent <= degree)
    if well_formed and (degree == 1 or cdr != parent):
        if entry_port == parent or entry_port == 0:
            if not cdr_used:
                return PROBE, cdr, {"cdr_used": True}  # fresh frontier edge
            return GO, cdr, {}  # retrace the pointer trail
        if entry_port == cdr and cdr_used:
            nxt = _next_port(cdr, parent, degree)
            if nxt is not None:
                return PROBE, nxt, {"cdr": nxt, "cdr_used": True}
            if parent is None:
                return STUCK, None, {"subtree_done": True}
            return GO, parent, {"subtree_done": True}

    # Unexpected configuration: a crash replaced this robot's predecessor.
    if parent is None or at_root_marker:
        # The root never gets a parent; fault-free descents always arrive
        # through its used pointer, so only crash leftovers reach here.  A
        # fresh pointer still deserves its probe; a used one brought us back
        # around a stale cycle, so advance strictly past it.
        if entry_port == 0:
            return STUCK, None, {}
        if cdr is not None and 1 <= cdr <= degree and not cdr_used:
            return PROBE, cdr, {"cdr_used": True}
        base = cdr if cdr is not None and 1 <= cdr <= degree else 0
        later = list(range(base + 1, degree + 1))
        preferred = [p for p in later if p != entry_port]
        nxt = preferred[0] if preferred else (later[0] if later else None)
        if nxt is None:
            return STUCK, None, {"subtree_done": True}
        return REPAIR, None, {"cdr": nxt, "cdr_used": False, "subtree_done": False}
    changes = {"parent": entry_port, "cdr": _first_port(entry_port, degree), "cdr_used": False, "subtree_done": False}
    return REPAIR, None, changes


def pointer_writes(target: int, changes: dict) -> tuple[Write, ...]:
    """``changes`` to a settled robot's fields as writes, in field-name order."""
    return tuple(Write(target, f, v) for f, v in sorted(changes.items()))


def _pointers(core: RootedCore) -> tuple[tuple, dict]:
    """A settled robot's pointers as ``dfs_step`` reads them, and as the ``at``
    snapshot in the note of a traveller routed by them."""
    pointers = (core.parent, core.cdr, core.cdr_used, core.subtree_done)
    return pointers, dict(zip(("parent", "cdr", "used", "done"), pointers))


def _first_port(parent: int | None, degree: int) -> int:
    """Smallest port skipping the parent; the parent itself on a leaf."""
    for p in range(1, degree + 1):
        if p != parent:
            return p
    return parent


def _next_port(current: int, parent: int | None, degree: int) -> int | None:
    for p in range(current + 1, degree + 1):
        if p != parent:
            return p
    return None


def settle_core(entry_port: int, degree: int, at_root: bool) -> RootedCore:
    parent = None if (entry_port == 0 or at_root) else entry_port
    cdr = _first_port(parent, degree)
    return RootedCore(mode=SETTLED, parent=parent, cdr=cdr, cdr_used=False, subtree_done=False)


class RootedDispersion:
    """Transition function for the rooted protocol; pure given (state, view).

    ``max_degree`` only scales the memory accounting (port field widths);
    the transition logic never consults it -- rooted robots know nothing
    about the graph.
    """

    name = "rooted"

    def __init__(self, robot_ids, max_degree: int):
        given = list(robot_ids)
        ids = sorted(set(given))
        if len(ids) != len(given):
            raise ValueError("robot ids must be distinct")
        self.k = len(ids)
        self.max_degree = max_degree
        self.rank = {rid: i for i, rid in enumerate(ids, start=1)}
        self.round_budget = 7 * self.k * self.k
        a = ceil(log2(self.k + 1))
        b = ceil(log2(self.max_degree + 2))
        clock = ceil(log2(3 * self.k + 1))
        # id, settled, mode, parent, cdr, used, done, rounds_out; a waiting
        # robot adds the epoch clock and the active rank
        self._base_bits = a + 1 + 2 + b + b + 1 + 1 + clock
        self._at_root_bits = self._base_bits + clock + a
        # the last co-located tuple seen and its facts (see _node_facts)
        self._facts_of = None
        self._facts = None

    def init_core(self, rid: int) -> RootedCore:
        return RootedCore()

    def memory_bits(self, state: RobotState) -> int:
        """Documented encoding: id in [0,k], ports in [0, delta+1] (0 = null),
        a 2-bit mover mode (settled is carried by the settled flag), and the
        budget clock in [0, 3k]."""
        if isinstance(state.core, RootedCore) and state.core.mode == AT_ROOT:
            return self._at_root_bits
        return self._base_bits

    # -- transition --------------------------------------------------------
    def transition(self, state: RobotState, view: LocalView) -> Decision:
        core: RootedCore = state.core
        if state.settled:
            return Decision(core, STAY, note={"mode": SETTLED})

        settled_here, lowest_unsettled, pool, pool_ranks = self._node_facts(view.co_located)
        at_root_marker = core.mode == AT_ROOT or any(s.id != state.id for s in pool)

        if settled_here is None:
            if state.id == lowest_unsettled:
                new = settle_core(view.entry_port, view.degree, at_root_marker)
                return Decision(
                    new,
                    SETTLE,
                    note={
                        "mode": SETTLED,
                        "rank": self.rank[state.id],
                        "rsr": core.rounds_out + (0 if core.mode == AT_ROOT else 1),
                        "parent": new.parent,
                        "cdr": new.cdr,
                    },
                )
            # someone else settles here this round
            if core.mode == AT_ROOT:
                return Decision(core, STAY, note={"mode": AT_ROOT})  # counters freeze
            if core.mode == RETREAT and at_root_marker:
                return self._join_pool(state, view, core, settled_this_round=True)
            return Decision(core, STAY, note={"mode": core.mode, "rsr": core.rounds_out})

        if core.mode == AT_ROOT:
            return self._pool_round(state, view, core, settled_here, pool_ranks)
        if core.mode == RETREAT:
            return self._retreat_round(state, view, core, settled_here, at_root_marker)
        return self._explore_round(state, view, core, settled_here, at_root_marker)

    def _node_facts(self, co_located: tuple[RobotState, ...]):
        """(first settled robot, lowest unsettled id, waiting pool in view
        order, the pool's sorted ranks) of one node; the pool is the unsettled
        robots in AT_ROOT mode.  Kept for the last tuple seen: the engine
        visits a node's robots consecutively, all with the same tuple."""
        if co_located is not self._facts_of:
            settled = None
            lowest = None
            pool = []
            for s in co_located:
                if s.settled:
                    if settled is None:
                        settled = s
                    continue
                if lowest is None or s.id < lowest:
                    lowest = s.id
                if s.core.mode == AT_ROOT:
                    pool.append(s)
            self._facts = (settled, lowest, tuple(pool), tuple(sorted(self.rank[s.id] for s in pool)))
            self._facts_of = co_located
        return self._facts

    # -- waiting at the root -----------------------------------------------
    def _pool_next(self, core: RootedCore, members: list[int]) -> tuple[int, int, int | None]:
        """Shared epoch bookkeeping; every waiting robot computes the same."""
        ar, ec = core.active_rank, core.epoch_clock
        boundary = ar == 0 or ec >= 3 * ar
        if not boundary:
            return ar, ec + 1, None
        # members is never empty: the pool's ranks include the caller's, and
        # a rejoining robot asks only when the pool has a peer
        nxt = members[0]
        return nxt, 1, nxt

    def _pool_round(self, state: RobotState, view: LocalView, core: RootedCore, settled_here, members) -> Decision:
        ar, ec, departer = self._pool_next(core, members)
        my_rank = self.rank[state.id]
        if departer == my_rank:
            pointers, snapshot = _pointers(settled_here.core)
            outcome, port, changes = dfs_step(pointers, view.degree, 0, False, True)
            if outcome != STUCK:
                mode = FORWARD if outcome == PROBE else DESCEND
                new = replace(core, mode=mode, rounds_out=1, active_rank=ar, epoch_clock=ec)
                return Decision(
                    new,
                    MOVE,
                    port=port,
                    writes=pointer_writes(settled_here.id, changes),
                    note={"mode": mode, "rsr": 1, "rank": my_rank, "at": snapshot},
                )
            # root exhausted: nothing to explore through; keep waiting
            new = replace(core, active_rank=ar, epoch_clock=ec)
            return Decision(new, STAY, note={"mode": AT_ROOT, "blocked": True})
        new = replace(core, active_rank=ar, epoch_clock=ec)
        return Decision(new, STAY, note={"mode": AT_ROOT})

    def _join_pool(
        self, state: RobotState, view: LocalView, core: RootedCore, rsr=None, writes=(), settled_this_round=False
    ) -> Decision:
        """A traveller back at the root adopts the waiting pool's counters.
        ``rsr`` is the round count its note reports, if any, and ``writes``
        go to the root's settled robot."""
        note = {"mode": AT_ROOT, "rejoined": True}
        if rsr is not None:
            note["rsr"] = rsr
        pool = self._node_facts(view.co_located)[2]
        peer = next((s for s in pool if s.id != state.id), None)
        if peer is None:
            ar = ec = 0
        elif settled_this_round:
            # the pool froze its counters while the root refills
            ar, ec = peer.core.active_rank, peer.core.epoch_clock
        else:
            members = sorted(self.rank[s.id] for s in pool if s.id != state.id)
            ar, ec, _ = self._pool_next(peer.core, members)
        new = replace(core, mode=AT_ROOT, rounds_out=0, active_rank=ar, epoch_clock=ec)
        return Decision(new, STAY, writes=writes, note=note)

    # -- exploring ----------------------------------------------------------
    def _explore_round(self, state, view, core, settled_here, at_root_marker) -> Decision:
        rank = self.rank[state.id]
        rounds_out = core.rounds_out + 1
        if rounds_out > 2 * rank - 1:
            # budget spent: resolve any half-finished probe, then head home
            return self._wind_down(state, view, core, settled_here, at_root_marker, rounds_out)

        pointers, snapshot = _pointers(settled_here.core)
        outcome, port, changes = dfs_step(pointers, view.degree, view.entry_port, core.mode == FORWARD, at_root_marker)
        writes = pointer_writes(settled_here.id, changes)
        if outcome == STUCK:
            # exhausted the root itself: rejoin the pool
            return self._join_pool(state, view, core, rounds_out, writes)
        mode = FORWARD if outcome == PROBE else DESCEND
        new = replace(core, mode=mode, rounds_out=rounds_out)
        note = {"mode": mode, "rsr": rounds_out, "at": snapshot}
        if outcome == REPAIR:
            events = (("repair", {"target": settled_here.id, **changes}),)
            return Decision(new, STAY, writes=writes, events=events, note=note)
        if outcome == BOUNCE:
            note["bounce"] = True
        return Decision(new, MOVE, port=port, writes=writes, note=note)

    def _wind_down(self, state, view, core, settled_here, at_root_marker, rounds_out) -> Decision:
        """Switch to retreat without leaving a dangling probe behind.

        A used direction pointer must never be left aimed at an unresolved
        edge: the next explorer would descend through it onto a cross edge
        and misread the far end as crash damage.  So an expired traveller
        first bounces home over a fresh forward edge, records the pointer
        advance its return implies, and only then follows parents.
        """
        s = settled_here.core
        if core.mode == FORWARD and view.entry_port != s.parent:
            new = replace(core, mode=DESCEND, rounds_out=rounds_out)
            return Decision(
                new, MOVE, port=view.entry_port,
                note={"mode": DESCEND, "rsr": rounds_out, "bounce": True},
            )
        writes = ()
        if view.entry_port == s.cdr and s.cdr_used and not s.subtree_done:
            nxt = _next_port(s.cdr, s.parent, view.degree)
            resolution = {"cdr": nxt, "cdr_used": False} if nxt is not None else {"subtree_done": True}
            writes = pointer_writes(settled_here.id, resolution)
        if s.parent is None or at_root_marker:
            return self._join_pool(state, view, core, rounds_out, writes)
        new = replace(core, mode=RETREAT, rounds_out=rounds_out)
        return Decision(new, MOVE, port=s.parent, writes=writes, note={"mode": RETREAT, "rsr": rounds_out})

    # -- heading home -------------------------------------------------------
    def _retreat_round(self, state, view, core, settled_here, at_root_marker) -> Decision:
        rank = self.rank[state.id]
        rounds_out = core.rounds_out + 1
        if settled_here.core.parent is None or at_root_marker:
            return self._join_pool(state, view, core, rounds_out)
        new = replace(core, mode=RETREAT, rounds_out=rounds_out)
        note = {"mode": RETREAT, "rsr": rounds_out}
        if rounds_out > 3 * rank:
            note["overrun"] = True  # unrepaired inconsistency; keep walking parents
        return Decision(new, MOVE, port=settled_here.core.parent, note=note)
