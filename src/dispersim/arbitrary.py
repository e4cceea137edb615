"""Clustered crash-fault dispersion with known (k, f, l, m, max degree).

Runs l+f+1 phases of min(m, k*delta, k^2) rounds each.  Within a phase every
cluster does a DFS as one moving unit, settling its lowest-id member on each
empty node; cluster id (and priority) is the highest member id at phase
start.  Meeting a higher-priority settled robot parks the cluster until the
phase ends; a lower-priority or reset settled robot is adopted into the
cluster's own tree.  Co-located clusters leave the highest-priority one
exploring and merge the rest into a single waiting unit.  At a phase
boundary every pointer resets, which confines crash damage to its phase.
At a node of degree >= k the cluster switches to a port-by-port neighborhood
sweep that settles everyone within 2*degree+1 rounds.

Travellers read a node's settled robot through its core, as the rooted
protocol does: its (parent, cdr, cdr_used, subtree_done) route them through
``rooted.dfs_step``, and every write to it goes through
``rooted.pointer_writes``.  In a reset round it reads as ``_RESET``, what the
reset leaves of it.

Per robot-step cost: most steps are waits, and a wait is paid for once per
cluster, not once per robot.  A settled robot only ticks its counter, which
``idle`` gives the engine without a view or a transition outside reset
rounds, from the same ``_tick`` and ``_note`` as a Decision, with one note
object for all settled robots of a cluster, so the engine writes their
trace lines from one template.  The facts of a node (its settled robot, its
unsettled ids, each priority's leader) are computed once per node per
round, and a robot that does not lead its node gets the Decision of the
node-mate decided just before it when their cores, settled flags and entry
ports are equal: a cluster moving or parked as one unit is decided by its
leader and one follower.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

from .engine import MOVE, SETTLE, STAY, Decision, LocalView, RobotState
from .rooted import BOUNCE, PROBE, REPAIR, STUCK, _first_port, dfs_step, pointer_writes


@dataclass(frozen=True)
class ArbitraryCore:
    cid: int | None = None
    priority: int | None = None
    parent: int | None = None
    cdr: int | None = None
    cdr_used: bool = False
    subtree_done: bool = False
    counter: int = 0
    waiting: bool = False
    phase_index: int = 0
    forward: bool = False  # last hop was this cluster's first traversal of that edge
    sweep_port: int = 0  # 0 = no sweep in progress
    sweep_out: bool = False  # True: at the hub, next move goes out through sweep_port


_new_core = object.__new__


def _tick(core: ArbitraryCore, changes: dict | None = None) -> ArbitraryCore:
    """One round's core: ``dataclasses.replace(core, **changes)`` with the
    counter ticked down.  A copy of the frozen core's field dict with the
    changes applied, not a call of the generated ``__init__``, which is
    several times cheaper; valid while ArbitraryCore has no slots, no
    __post_init__ and no init=False fields.  Engine write arbitration still
    uses ``replace``."""
    new = _new_core(ArbitraryCore)
    fields = new.__dict__
    fields.update(core.__dict__)
    if changes:
        fields.update(changes)
    fields["counter"] = core.counter - 1
    return new


def _note(core: ArbitraryCore) -> dict:
    """The action note of a robot whose new core is ``core``."""
    return {
        "cid": core.cid, "pri": core.priority, "counter": core.counter, "phase": core.phase_index,
        "waiting": core.waiting,
    }


# what a reset leaves of a settled robot's fields, as the robots that meet it
# in a reset round read them
_RESET = ArbitraryCore()


class ArbitraryDispersion:
    """Transition function for the clustered protocol; pure given (state, view)."""

    name = "arbitrary"

    def __init__(
        self,
        clusters: list[list[int]],
        edge_count: int,
        max_degree: int,
        faults: int,
        phase_len: int | None = None,
        num_phases: int | None = None,
    ):
        ids = sorted(rid for group in clusters for rid in group)
        if len(set(ids)) != len(ids):
            raise ValueError("robot ids must be distinct across clusters")
        if any(not group for group in clusters):
            raise ValueError("empty cluster")
        self.k = len(ids)
        self.l = len(clusters)
        self.f = faults
        self.m = edge_count
        self.max_degree = max_degree
        self.phase_len = phase_len if phase_len is not None else min(
            edge_count, self.k * max_degree, self.k * self.k
        )
        self.num_phases = num_phases if num_phases is not None else self.l + self.f + 1
        if self.phase_len < 1 or self.num_phases < 1:
            raise ValueError("phase parameters must be positive")
        self.round_budget = self.num_phases * self.phase_len
        self._home_cid = {rid: max(group) for group in clusters for rid in group}
        a = ceil(log2(self.k + 1))
        b = ceil(log2(self.max_degree + 2))
        counter_bits = ceil(log2(self.phase_len + 1))
        phase_bits = ceil(log2(self.num_phases + 2))
        # id, settled, cid, priority, parent, cdr, used, done, counter,
        # waiting, phase, forward, sweep port, sweep direction
        self._memory_bits = a + 1 + a + a + b + b + 1 + 1 + counter_bits + 1 + phase_bits + 1 + b + 1
        # the last co-located tuple seen and its facts (see _node_facts)
        self._facts_of = None
        self._facts = None
        # (tuple, (degree, entry port, settled, core), Decision) of the last
        # robot decided, unless it led its node (see transition)
        self._last = (None, None, None)
        # this round's counter and its idle notes, by (cid, priority, phase, waiting)
        self._notes_counter = None
        self._notes = {}

    def init_core(self, rid: int) -> ArbitraryCore:
        cid = self._home_cid[rid]
        return ArbitraryCore(cid=cid, priority=cid, counter=self.phase_len)

    def memory_bits(self, state: RobotState) -> int:
        """Every field has a fixed width, so every state costs the same."""
        return self._memory_bits

    def idle(self, state: RobotState):
        """A settled robot's round without its view: outside a reset round it
        only ticks its counter, exactly as ``transition`` would, so this is
        ``(core, note)`` of that Decision; in a reset round, None.  Robots
        whose notes are equal in a round (one cluster's settled robots) get
        one note object, so the engine writes their lines from one template."""
        core: ArbitraryCore = state.core
        if not core.counter:
            return None
        new = _tick(core)
        if new.counter != self._notes_counter:
            self._notes_counter, self._notes = new.counter, {}
        key = (core.cid, core.priority, core.phase_index, core.waiting)
        note = self._notes.get(key)
        if note is None:
            note = self._notes[key] = _note(new)
        return new, note

    # -- transition ----------------------------------------------------------
    def transition(self, state: RobotState, view: LocalView) -> Decision:
        """The robot's Decision.  It depends on the view, the robot's core and
        settled flag, and on its id only through whether the robot leads its
        node for its priority (settles there, or is the robot the others
        write to).  So a robot that does not lead gets the Decision object of
        the robot decided just before it, when that robot did not lead either
        and had the same co-located tuple, degree, entry port and settled
        flag, and an equal core."""
        core: ArbitraryCore = state.core
        here = view.co_located
        if not state.settled and self._node_facts(here)[3].get(core.priority or 0) == state.id:
            self._last = (None, None, None)
            return self._decide(state, view)
        key = (view.degree, view.entry_port, state.settled, core)
        last_here, last_key, last_dec = self._last
        if here is last_here and key == last_key:
            return last_dec
        dec = self._decide(state, view)
        self._last = (here, key, dec)
        return dec

    def _decide(self, state: RobotState, view: LocalView) -> Decision:
        core: ArbitraryCore = state.core
        reset_round = core.counter == 0
        events = [("reset", {"phase": core.phase_index + 1, "counter": self.phase_len})] if reset_round else []
        if state.settled:
            if reset_round:
                core = ArbitraryCore(counter=self.phase_len, phase_index=core.phase_index + 1)
            return self._finish(core, STAY, events=events)

        settled_here, lowest, highest, leaders, top, runner_up = self._node_facts(view.co_located)
        if reset_round:
            # everyone here just re-clustered together; no foreigners possible
            core = ArbitraryCore(
                cid=highest,
                priority=highest,
                counter=self.phase_len,
                phase_index=core.phase_index + 1,
            )
            leader = lowest
        else:
            # Co-located foreign clusters: the strongest keeps exploring, the
            # rest merge into one waiting unit (strongest among themselves).
            my_pri = core.priority or 0
            if my_pri != top:
                events.append(("merge", {"cid": runner_up}))
                return self._finish(
                    core, STAY, events=events,
                    cid=runner_up, priority=runner_up, waiting=True, sweep_port=0, forward=False,
                )
            leader = leaders[my_pri]

        if core.waiting:
            return self._finish(core, STAY, events=events)

        settled = None if settled_here is None else _RESET if reset_round else settled_here.core
        if core.sweep_port > 0:
            return self._sweep_round(state, view, core, settled, leader, events)
        return self._explore_round(state, view, core, settled_here, settled, leader, events, reset_round)

    def _node_facts(self, co_located: tuple[RobotState, ...]):
        """(first settled robot, lowest and highest unsettled id, each
        unsettled priority's lowest id, the top priority, the highest one
        below it) of one node.  Kept for the last tuple seen: the engine
        visits a node's robots consecutively, all with the same tuple."""
        if co_located is self._facts_of:
            return self._facts
        settled = None
        leaders: dict[int, int] = {}
        for s in co_located:
            if s.settled:
                if settled is None:
                    settled = s
                continue
            pri = s.core.priority or 0
            if pri not in leaders or s.id < leaders[pri]:
                leaders[pri] = s.id
        ids = [s.id for s in co_located if not s.settled]
        top = max(leaders, default=None)
        runner_up = max((p for p in leaders if p != top), default=None)
        self._facts = (settled, min(ids, default=None), max(ids, default=None), leaders, top, runner_up)
        self._facts_of = co_located
        return self._facts

    def _finish(
        self, core: ArbitraryCore, action: str, port: int = 0, writes=(), events=(), extra_note=None, **changes
    ) -> Decision:
        """The decision: ``changes`` applied to ``core`` by ``_tick``, and the
        ``_note`` of the new core with ``extra_note`` added."""
        new = _tick(core, changes)
        note = _note(new)
        if extra_note:
            note.update(extra_note)
        return Decision(new, action, port, tuple(writes), tuple(events), note, new.priority or 0)

    # -- exploration -------------------------------------------------------------
    def _explore_round(self, state, view, core, settled_here, settled, leader, events, reset_round) -> Decision:
        """``settled`` is the core of the node's settled robot ``settled_here``
        (``_RESET`` in a reset round), None on an empty node."""
        if settled is None:
            # empty node: lowest id settles, the rest leave through its pointer
            parent = None if view.entry_port == 0 else view.entry_port
            cdr = _first_port(parent, view.degree)
            if state.id == leader:
                return self._finish(
                    core, SETTLE, events=events, extra_note={"parent": parent, "cdr": cdr},
                    parent=parent, cdr=cdr, cdr_used=False, subtree_done=False, waiting=False, forward=False,
                    sweep_port=0,
                )
            if view.degree >= self.k:
                return self._finish(
                    core, MOVE, 1, events=events, extra_note={"sweep": 1}, sweep_port=1, sweep_out=False, forward=False
                )
            return self._finish(core, MOVE, cdr, pointer_writes(leader, {"cdr_used": True}), events, forward=True)

        sid = settled_here.id
        if settled.cid == core.cid and settled.cid is not None:
            pointers = (settled.parent, settled.cdr, settled.cdr_used, settled.subtree_done)
            outcome, port, changes = dfs_step(pointers, view.degree, view.entry_port, core.forward, False)
            writes = pointer_writes(sid, changes)
            if outcome == REPAIR:
                events.append(("repair", {"target": sid, **changes}))
                return self._finish(core, STAY, writes=writes, events=events, forward=False)
            if outcome == STUCK:
                return self._finish(core, STAY, writes=writes, events=events, waiting=True, forward=False)
            note = {"bounce": True} if outcome == BOUNCE else None
            return self._finish(core, MOVE, port, writes, events, note, forward=outcome == PROBE)

        if settled.priority is not None and settled.priority > (core.priority or 0):
            return self._finish(core, STAY, events=events, waiting=True, forward=False, sweep_port=0)

        # lower-priority or reset robot: adopt it into this cluster's tree.
        # One reset this round becomes the root of the phase's new DFS: no
        # parent, or a cycle closing back through the entry port would read
        # as a return along a tree edge.  Its first pointer still skips the
        # entry port, so the DFS does not start by going back the way the
        # cluster came.
        parent = None if view.entry_port == 0 or reset_round else view.entry_port
        cdr = _first_port(view.entry_port, view.degree)
        sweeping = view.degree >= self.k
        writes = pointer_writes(sid, {
            "cid": core.cid, "priority": core.priority, "parent": parent, "cdr": cdr, "cdr_used": not sweeping,
            "subtree_done": False,
        })
        if sweeping:
            return self._finish(
                core, MOVE, 1, writes, events, {"sweep": 1}, sweep_port=1, sweep_out=False, forward=False
            )
        return self._finish(core, MOVE, cdr, writes, events, forward=True)

    # -- degree >= k neighborhood sweep -------------------------------------------
    def _sweep_round(self, state, view, core, settled, leader, events) -> Decision:
        if core.sweep_out:
            if core.sweep_port > view.degree:
                # neighborhood exhausted (only reachable in degenerate states)
                return self._finish(core, STAY, events=events, sweep_port=0, sweep_out=False)
            return self._finish(
                core, MOVE, core.sweep_port, events=events, extra_note={"sweep": core.sweep_port}, sweep_out=False
            )

        # at a neighbor: settle on empty, yield to stronger, otherwise go back
        if settled is None:
            if state.id == leader:
                parent = view.entry_port
                cdr = _first_port(parent, view.degree)
                return self._finish(
                    core, SETTLE, events=events, extra_note={"parent": parent, "cdr": cdr},
                    parent=parent, cdr=cdr, cdr_used=False, subtree_done=False, forward=False, sweep_port=0,
                    sweep_out=False,
                )
        elif settled.priority is not None and settled.priority > (core.priority or 0):
            return self._finish(core, STAY, events=events, waiting=True, sweep_port=0, sweep_out=False, forward=False)
        return self._finish(
            core, MOVE, view.entry_port, events=events, extra_note={"sweep": core.sweep_port},
            sweep_port=core.sweep_port + 1, sweep_out=True,
        )
