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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil, log2

from .engine import MOVE, SETTLE, STAY, Decision, LocalView, RobotState, Write
from .rooted import dfs_step, _first_port


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

    def init_core(self, rid: int) -> ArbitraryCore:
        cid = self._home_cid[rid]
        return ArbitraryCore(cid=cid, priority=cid, counter=self.phase_len)

    def memory_bits(self, state: RobotState) -> int:
        a = ceil(log2(self.k + 1))
        b = ceil(log2(self.max_degree + 2))
        counter_bits = ceil(log2(self.phase_len + 1))
        phase_bits = ceil(log2(self.num_phases + 2))
        # id, settled, cid, priority, parent, cdr, used, done, counter,
        # waiting, phase, forward, sweep port, sweep direction
        return a + 1 + a + a + b + b + 1 + 1 + counter_bits + 1 + phase_bits + 1 + b + 1

    # -- transition ----------------------------------------------------------
    def transition(self, state: RobotState, view: LocalView) -> Decision:
        core: ArbitraryCore = state.core
        reset_round = core.counter == 0
        events: list[tuple[str, dict]] = []

        unsettled = [s for s in view.co_located if not s.settled]
        if reset_round:
            events.append(("reset", {"phase": core.phase_index + 1, "counter": self.phase_len}))
            if state.settled:
                core = ArbitraryCore(counter=self.phase_len, phase_index=core.phase_index + 1)
            else:
                fresh_cid = max(s.id for s in unsettled)
                core = ArbitraryCore(
                    cid=fresh_cid,
                    priority=fresh_cid,
                    counter=self.phase_len,
                    phase_index=core.phase_index + 1,
                )

        if state.settled:
            return self._finish(core, STAY, events=events)

        if reset_round:
            # everyone here just re-clustered together; no foreigners possible
            cluster = sorted(s.id for s in unsettled)
        else:
            # Co-located foreign clusters: the strongest keeps exploring, the
            # rest merge into one waiting unit (strongest among themselves).
            my_pri = core.priority or 0
            peer_pris = {s.core.priority or 0 for s in unsettled}
            if len(peer_pris) > 1:
                top = max(peer_pris)
                if my_pri != top:
                    merged = max(p for p in peer_pris if p != top)
                    core = replace(core, cid=merged, priority=merged, waiting=True, sweep_port=0, forward=False)
                    events.append(("merge", {"cid": merged}))
                    return self._finish(core, STAY, events=events)
            cluster = sorted(s.id for s in unsettled if (s.core.priority or 0) == my_pri)

        if core.waiting:
            return self._finish(core, STAY, events=events)

        settled_here = next((s for s in view.co_located if s.settled), None)
        eff = self._eff_settled(settled_here, reset_round)

        if core.sweep_port > 0:
            return self._sweep_round(state, view, core, eff, cluster, events)
        return self._explore_round(state, view, core, eff, cluster, events, reset_round)

    @staticmethod
    def _eff_settled(settled_here, reset_round):
        """The settled robot's fields as they stand after this round's reset."""
        if settled_here is None:
            return None
        c = settled_here.core
        if reset_round:
            return settled_here.id, None, None, None, None, False, False
        return settled_here.id, c.cid, c.priority, c.parent, c.cdr, c.cdr_used, c.subtree_done

    def _finish(self, core: ArbitraryCore, action: str, port: int = 0, writes=(), events=(), extra_note=None) -> Decision:
        new = replace(core, counter=core.counter - 1)
        note = {
            "cid": new.cid,
            "pri": new.priority,
            "counter": new.counter,
            "phase": new.phase_index,
            "waiting": new.waiting,
        }
        if extra_note:
            note.update(extra_note)
        return Decision(
            new,
            action,
            port=port,
            writes=tuple(writes),
            events=tuple(events),
            note=note,
            writer_priority=new.priority or 0,
        )

    # -- exploration -------------------------------------------------------------
    def _explore_round(self, state, view, core, eff, cluster, events, reset_round) -> Decision:
        my_pri = core.priority or 0

        if eff is None:
            # empty node: lowest id settles, the rest leave through its pointer
            parent = None if view.entry_port == 0 else view.entry_port
            cdr = _first_port(parent, view.degree)
            if state.id == cluster[0]:
                new = replace(
                    core,
                    parent=parent,
                    cdr=cdr,
                    cdr_used=False,
                    subtree_done=False,
                    waiting=False,
                    forward=False,
                    sweep_port=0,
                )
                return self._finish(new, SETTLE, events=events, extra_note={"parent": parent, "cdr": cdr})
            if view.degree >= self.k:
                new = replace(core, sweep_port=1, sweep_out=False, forward=False)
                return self._finish(new, MOVE, port=1, events=events, extra_note={"sweep": 1})
            new = replace(core, forward=True)
            writes = [Write(cluster[0], "cdr_used", True)]
            return self._finish(new, MOVE, port=cdr, writes=writes, events=events)

        sid, s_cid, s_pri, s_parent, s_cdr, s_used, s_done = eff

        if s_cid == core.cid and s_cid is not None:
            out = dfs_step(
                s_parent, s_cdr, s_used, s_done, view.degree, view.entry_port, core.forward, False
            )
            writes = [Write(sid, f, v) for f, v in sorted(out.writes.items())]
            if out.repaired:
                events.append(("repair", {"target": sid, **out.writes}))
                new = replace(core, forward=False)
                return self._finish(new, STAY, writes=writes, events=events)
            if out.stuck:
                new = replace(core, waiting=True, forward=False)
                return self._finish(new, STAY, writes=writes, events=events)
            note = {"bounce": True} if out.bounced else None
            new = replace(core, forward=out.leaves_forward)
            return self._finish(new, MOVE, port=out.exit_port, writes=writes, events=events, extra_note=note)

        if s_pri is not None and s_pri > my_pri:
            new = replace(core, waiting=True, forward=False, sweep_port=0)
            return self._finish(new, STAY, events=events)

        # lower-priority or reset robot: adopt it into this cluster's tree.
        # One reset this round becomes the root of the phase's new DFS: no
        # parent, or a cycle closing back through the entry port would read
        # as a return along a tree edge.  Its first pointer still skips the
        # entry port, so the DFS does not start by going back the way the
        # cluster came.
        parent = None if view.entry_port == 0 or reset_round else view.entry_port
        cdr = _first_port(view.entry_port, view.degree)
        sweeping = view.degree >= self.k
        writes = [
            Write(sid, "cid", core.cid),
            Write(sid, "priority", core.priority),
            Write(sid, "parent", parent),
            Write(sid, "cdr", cdr),
            Write(sid, "cdr_used", not sweeping),
            Write(sid, "subtree_done", False),
        ]
        if sweeping:
            new = replace(core, sweep_port=1, sweep_out=False, forward=False)
            return self._finish(new, MOVE, port=1, writes=writes, events=events, extra_note={"sweep": 1})
        new = replace(core, forward=True)
        return self._finish(new, MOVE, port=cdr, writes=writes, events=events)

    # -- degree >= k neighborhood sweep -------------------------------------------
    def _sweep_round(self, state, view, core, eff, cluster, events) -> Decision:
        if core.sweep_out:
            if core.sweep_port > view.degree:
                # neighborhood exhausted (only reachable in degenerate states)
                new = replace(core, sweep_port=0, sweep_out=False)
                return self._finish(new, STAY, events=events)
            new = replace(core, sweep_out=False)
            return self._finish(new, MOVE, port=core.sweep_port, events=events, extra_note={"sweep": core.sweep_port})

        # at a neighbor: settle on empty, yield to stronger, otherwise go back
        if eff is None:
            if state.id == cluster[0]:
                parent = view.entry_port
                cdr = _first_port(parent, view.degree)
                new = replace(
                    core,
                    parent=parent,
                    cdr=cdr,
                    cdr_used=False,
                    subtree_done=False,
                    forward=False,
                    sweep_port=0,
                    sweep_out=False,
                )
                return self._finish(new, SETTLE, events=events, extra_note={"parent": parent, "cdr": cdr})
        else:
            _, _, s_pri, _, _, _, _ = eff
            if s_pri is not None and s_pri > (core.priority or 0):
                new = replace(core, waiting=True, sweep_port=0, sweep_out=False, forward=False)
                return self._finish(new, STAY, events=events)
        new = replace(core, sweep_port=core.sweep_port + 1, sweep_out=True)
        return self._finish(
            new, MOVE, port=view.entry_port, events=events, extra_note={"sweep": core.sweep_port}
        )
