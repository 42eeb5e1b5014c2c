"""Network graph and deterministic minimum-hop routing.

The graph is simple and undirected; routing is fixed minimum-hop with a
lexicographic tie-break so that forward and reverse paths are well defined
for the confirmation protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

Route = tuple[int, ...]


class TopologyError(Exception):
    """A topology description, edge list or route request is invalid;
    ``edge`` is the index of the pair at fault in ``from_edges``'s pairs."""

    def __init__(self, message: str, edge: int | None = None):
        super().__init__(message)
        self.edge = edge


@dataclass(frozen=True)
class NetworkTopology:
    """Immutable undirected simple graph with sorted adjacency lists.

    Each directed connection (u, v) has an id in CSR order: node u's
    connections take consecutive ids in the order of its sorted neighbours,
    after those of every smaller node, so ids follow (u, v) order and run
    from 0 to 2E - 1.  ``edge_ids`` maps (u, v) to its id.
    """

    node_count: int
    edges: frozenset[tuple[int, int]]
    adjacency: tuple[tuple[int, ...], ...]
    edge_ids: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids: dict[tuple[int, int], int] = {}
        for u, ns in enumerate(self.adjacency):
            for v in ns:
                ids[u, v] = len(ids)
        object.__setattr__(self, "edge_ids", ids)

    @classmethod
    def from_edges(cls, node_count: int, edge_pairs) -> NetworkTopology:
        """Build and validate a topology from (a, b) node pairs."""
        if node_count < 1:
            raise TopologyError(f"node count must be >= 1, got {node_count}")
        edges: set[tuple[int, int]] = set()
        neighbors: list[set[int]] = [set() for _ in range(node_count)]
        for i, (a, b) in enumerate(edge_pairs):
            if not (0 <= a < node_count and 0 <= b < node_count):
                raise TopologyError(f"edge ({a}, {b}) references a node outside [0, {node_count})", i)
            if a == b:
                raise TopologyError(f"edge ({a}, {b}) is a self-loop", i)
            key = (a, b) if a < b else (b, a)
            if key in edges:
                raise TopologyError(f"edge {key} listed more than once", i)
            edges.add(key)
            neighbors[a].add(b)
            neighbors[b].add(a)
        adjacency = tuple(tuple(sorted(ns)) for ns in neighbors)
        topo = cls(node_count, frozenset(edges), adjacency)
        unreachable = [v for v, d in enumerate(_hop_distances(topo, 0)) if d < 0]
        if unreachable:
            raise TopologyError(f"nodes unreachable from node 0: {unreachable}")
        return topo


def _hop_distances(topo: NetworkTopology, dst: int) -> list[int]:
    """Hop distance of every node to dst (breadth-first search)."""
    dist = [-1] * topo.node_count
    dist[dst] = 0
    frontier = [dst]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in topo.adjacency[u]:
                if dist[v] < 0:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def shortest_route(
    topo: NetworkTopology, src: int, dst: int, distances: dict[int, list[int]]
) -> Route:
    """Minimum-hop route from src to dst.

    Among equal-length routes the lexicographically smallest hop sequence is
    returned, which makes routing (and thus reverse paths) deterministic.
    ``distances`` caches the hop-distance table of each destination across
    calls; its owner decides how long the tables live.
    """
    if not (0 <= src < topo.node_count and 0 <= dst < topo.node_count):
        raise TopologyError(f"invalid endpoints ({src}, {dst})")
    if src == dst:
        raise TopologyError(f"route requested from node {src} to itself")
    dist = distances.get(dst)
    if dist is None:
        dist = distances[dst] = _hop_distances(topo, dst)
    if dist[src] < 0:
        raise TopologyError(f"no path from {src} to {dst}")
    hops = [src]
    cur = src
    d = dist[src]
    while cur != dst:
        # adjacency is sorted, so the first neighbor strictly closer to dst
        # is the lexicographically smallest valid continuation
        for v in topo.adjacency[cur]:
            if dist[v] == d - 1:
                cur = v
                d -= 1
                hops.append(v)
                break
    return tuple(hops)

