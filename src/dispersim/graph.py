"""Anonymous, port-labelled, connected, simple, undirected graphs.

A node's incident edges carry local port numbers 1..deg(v); the two ends of
an edge are labelled independently.  Nodes have no identity visible to
protocol code: node indices exist only here and in the engine.  Graphs are
immutable after construction and validated against five invariants (dense
ports, reciprocity, simplicity, connectivity, handshake).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


class GraphError(ValueError):
    """Base class for graph construction/query failures."""


class SelfLoop(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class DisconnectedGraph(GraphError):
    pass


class PortOutOfRange(GraphError):
    pass


class InfeasibleParameters(GraphError):
    pass


@dataclass(frozen=True)
class PortGraph:
    """Immutable port-labelled graph.

    ``adjacency[v-1][p-1] == (u, q)`` means port ``p`` at node ``v`` leads to
    node ``u`` and arrives through port ``q`` at ``u``.  Nodes are 1..n.
    """

    node_count: int
    edge_count: int
    adjacency: tuple[tuple[tuple[int, int], ...], ...]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v - 1])

    def neighbor(self, v: int, p: int) -> tuple[int, int]:
        """Follow port ``p`` out of ``v``; returns (node, arrival port)."""
        if not 1 <= p <= self.degree(v):
            raise PortOutOfRange(f"port {p} out of range at node {v} (degree {self.degree(v)})")
        return self.adjacency[v - 1][p - 1]

    def max_degree(self) -> int:
        return max(self.degree(v) for v in range(1, self.node_count + 1))

    def nodes(self) -> range:
        return range(1, self.node_count + 1)


def _validate(adjacency: list[list[tuple[int, int]]], edge_count: int) -> None:
    n = len(adjacency)
    if n < 1:
        raise InfeasibleParameters("graph needs at least one node")
    degree_sum = 0
    for v in range(1, n + 1):
        row = adjacency[v - 1]
        degree_sum += len(row)
        seen_neighbors = set()
        for p, (u, q) in enumerate(row, start=1):
            if not 1 <= u <= n:
                raise GraphError(f"node {v} port {p} points at unknown node {u}")
            if u == v:
                raise SelfLoop(f"self-loop at node {v}")
            if u in seen_neighbors:
                raise DuplicateEdge(f"parallel edge {v}-{u}")
            seen_neighbors.add(u)
            if not 1 <= q <= len(adjacency[u - 1]):
                raise GraphError(f"reciprocal port {q} out of range at node {u}")
            if adjacency[u - 1][q - 1] != (v, p):
                raise GraphError(f"ports not reciprocal: {v}:{p} -> {u}:{q}")
    if degree_sum != 2 * edge_count:
        raise GraphError(f"handshake failed: sum(deg)={degree_sum}, 2m={2 * edge_count}")
    # connectivity from node 1
    seen = {1}
    frontier = [1]
    while frontier:
        v = frontier.pop()
        for u, _ in adjacency[v - 1]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    if len(seen) != n:
        raise DisconnectedGraph(f"only {len(seen)} of {n} nodes reachable from node 1")


def build(
    edges: list[tuple[int, int]],
    port_rule: str = "sorted",
    seed: int | None = None,
) -> PortGraph:
    """Assign port labels to an edge list and validate the result.

    ``port_rule="sorted"`` numbers ports at each node by ascending neighbor
    index; ``"seeded-shuffle"`` applies a deterministic per-node permutation
    of that assignment, drawn from ``random.Random(seed)``.
    """
    if port_rule not in ("sorted", "seeded-shuffle"):
        raise InfeasibleParameters(f"unknown port rule {port_rule!r}")
    if port_rule == "seeded-shuffle" and seed is None:
        raise InfeasibleParameters("seeded-shuffle needs a seed")
    if not edges:
        raise InfeasibleParameters("empty edge list")

    n = 0
    seen_pairs = set()
    for a, b in edges:
        if a == b:
            raise SelfLoop(f"self-loop at node {a}")
        key = (min(a, b), max(a, b))
        if key in seen_pairs:
            raise DuplicateEdge(f"duplicate edge {a}-{b}")
        seen_pairs.add(key)
        n = max(n, a, b)
    if any(a < 1 or b < 1 for a, b in edges):
        raise GraphError("nodes must be numbered from 1")

    neighbors: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        neighbors[a - 1].add(b)
        neighbors[b - 1].add(a)
    neighbor_order = [sorted(row) for row in neighbors]
    if port_rule == "seeded-shuffle":
        rng = random.Random(seed)
        for row in neighbor_order:  # node order fixed, so permutations are reproducible
            rng.shuffle(row)

    port_of = [{u: p for p, u in enumerate(row, start=1)} for row in neighbor_order]
    adjacency = [
        [(u, port_of[u - 1][v]) for u in neighbor_order[v - 1]]
        for v in range(1, n + 1)
    ]
    _validate(adjacency, len(edges))
    return PortGraph(n, len(edges), tuple(tuple(row) for row in adjacency))


def from_adjacency(table: dict[int, list[tuple[int, int]]]) -> PortGraph:
    """Build directly from an explicit port table {node: [(neighbor, port), ...]}."""
    n = max(table) if table else 0
    if sorted(table) != list(range(1, n + 1)):
        raise GraphError("port table must cover nodes 1..n")
    adjacency = [[tuple(entry) for entry in table[v]] for v in range(1, n + 1)]
    m2 = sum(len(row) for row in adjacency)
    if m2 % 2:
        raise GraphError("odd number of port entries")
    _validate(adjacency, m2 // 2)
    return PortGraph(n, m2 // 2, tuple(tuple(row) for row in adjacency))


def ring(n: int) -> PortGraph:
    if n < 3:
        raise InfeasibleParameters("ring needs n >= 3")
    return build([(i, i + 1) for i in range(1, n)] + [(n, 1)])


def path(n: int) -> PortGraph:
    if n < 2:
        raise InfeasibleParameters("path needs n >= 2")
    return build([(i, i + 1) for i in range(1, n)])


def complete(n: int) -> PortGraph:
    if n < 2:
        raise InfeasibleParameters("complete graph needs n >= 2")
    return build([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def star(n: int) -> PortGraph:
    """Node 1 is the center; 2..n are leaves."""
    if n < 3:
        raise InfeasibleParameters("star needs n >= 3")
    return build([(1, i) for i in range(2, n + 1)])


def random_connected(n: int, m: int, seed: int) -> PortGraph:
    """Deterministic connected random graph with n nodes and m edges.

    A random spanning tree guarantees connectivity; remaining edges are a
    seeded sample of the non-tree pairs.  Port labels use the same seed.
    """
    if n < 2:
        raise InfeasibleParameters("need n >= 2")
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise InfeasibleParameters(f"m={m} infeasible for a simple connected graph on n={n}")
    rng = random.Random(seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = []
    used = set()
    for i in range(1, n):
        j = rng.randrange(i)
        a, b = order[i], order[j]
        edges.append((a, b))
        used.add((min(a, b), max(a, b)))
    extra = [
        (a, b)
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if (a, b) not in used
    ]
    rng.shuffle(extra)
    edges.extend(extra[: m - (n - 1)])
    return build(edges, port_rule="seeded-shuffle", seed=seed)


_GENERATORS = {
    "ring": ring,
    "path": path,
    "complete": complete,
    "star": star,
    "random_connected": random_connected,
}


def generate(kind: str, **params) -> PortGraph:
    """Dispatch to a named generator; pure function of its parameters."""
    try:
        gen = _GENERATORS[kind]
    except KeyError:
        raise InfeasibleParameters(f"unknown generator {kind!r}") from None
    return gen(**params)
