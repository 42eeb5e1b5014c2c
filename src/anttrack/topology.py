"""Network graph and deterministic minimum-hop routing.

The graph is simple and undirected; routing is fixed minimum-hop with a
lexicographic tie-break so that forward and reverse paths are well defined
for the confirmation protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

Route = tuple[int, ...]


class InvalidConfig(Exception):
    """Input the package rejects, with a message that names the fault: a
    topology, edge list or route request, a parameter out of range, or a
    scenario fault.  ``edge`` is the index of the pair at fault in
    ``from_edges``'s pairs, or None."""

    def __init__(self, message: str, edge: int | None = None):
        super().__init__(message)
        self.edge = edge


class _built_once:
    """A table derived from a topology, built at its first read and kept on it
    by ``object.__setattr__``, outside its equality and repr.
    ``functools.cached_property`` writes ``instance.__dict__``, which on
    CPython 3.11 and 3.12 doubles the cost of every later attribute read of
    the topology: sparse1000's ms per tick rose 1.8% (21 of 22 pairs, 3.11.7)."""

    def __init__(self, build):
        self.build = build

    def __get__(self, topo, owner=None):
        if topo is None:
            return self
        value = self.build(topo)
        object.__setattr__(topo, self.build.__name__, value)
        return value


@dataclass(frozen=True)
class NetworkTopology:
    """Immutable undirected simple graph with sorted adjacency lists.

    Each directed connection (u, v) has an id in CSR order: node u's
    connections take consecutive ids in the order of its sorted neighbours,
    after those of every smaller node, so ids follow (u, v) order and run
    from 0 to 2E - 1.  ``out_ids[u][v]`` is the id of u -> v, one dict row
    per node: a lookup hashes two ints, not a (u, v) tuple, and a negative
    node is a missing key where a list would index another node's row.
    ``out_pairs`` lists the same ids row by row for agents, and ``levels``
    holds the reach levels routing reads.
    """

    node_count: int
    adjacency: tuple[tuple[int, ...], ...]

    def __reduce__(self):
        """Pickle as the constructor call, without the built tables: an
        unpickled instance, as a ``sweep --jobs`` worker gets it, is then a
        fresh one.  CPython 3.11 reads the attributes of an instance whose
        ``__dict__`` unpickling set about ten times as slowly (sparse1000's
        topology, 3.11.7: 37 ns a ``topo.adjacency`` read against 4 ns)."""
        return NetworkTopology, (self.node_count, self.adjacency)

    @_built_once
    def out_ids(self) -> dict[int, dict[int, int]]:
        rows, first = {}, 0
        for u, ns in enumerate(self.adjacency):
            rows[u] = dict(zip(ns, range(first, first + len(ns))))
            first += len(ns)
        return rows

    @_built_once
    def out_pairs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``out_pairs[u]`` is u's ``(v, id of u -> v)`` pairs in ascending v,
        read from the ``out_ids`` rows.  An agent scans one prebuilt tuple,
        which allocates nothing per step, where an items view or a CSR slice
        would allocate on every step."""
        rows = self.out_ids
        return tuple(tuple(rows[u].items()) for u in range(self.node_count))

    @classmethod
    def from_edges(cls, node_count: int, edge_pairs) -> NetworkTopology:
        """Build and validate a topology from (a, b) node pairs.  Nothing is
        allocated per node before the graph is known to be connected, so a
        huge node count with few edges is refused at once."""
        if node_count < 1:
            raise InvalidConfig(f"node count must be >= 1, got {node_count}")
        neighbors: dict[int, set[int]] = {}
        for i, (a, b) in enumerate(edge_pairs):
            if not (0 <= a < node_count and 0 <= b < node_count):
                raise InvalidConfig(f"edge ({a}, {b}) references a node outside [0, {node_count})", i)
            if a == b:
                raise InvalidConfig(f"edge ({a}, {b}) is a self-loop", i)
            if b in neighbors.get(a, ()):
                raise InvalidConfig(f"edge {(min(a, b), max(a, b))} listed more than once", i)
            neighbors.setdefault(a, set()).add(b)
            neighbors.setdefault(b, set()).add(a)
        seen, stack = {0}, [0]
        while stack:
            new = neighbors.get(stack.pop(), set()) - seen
            seen |= new
            stack.extend(new)
        if len(seen) < node_count:
            unreachable = list(islice((v for v in range(node_count) if v not in seen), 10))
            more = node_count - len(seen) - len(unreachable)
            raise InvalidConfig(f"nodes unreachable from node 0: {unreachable}"
                                + (f" and {more} more" if more else ""))
        return cls(node_count, tuple(tuple(sorted(neighbors.get(v, ()))) for v in range(node_count)))

    @_built_once
    def levels(self) -> list[list[int]]:
        """Breadth-first search from every node at once, one bit per node (the
        bit-parallel BFS of Akiba, Iwata and Yoshida, SIGMOD 2013): for
        k = 0 .. diameter, bit w of ``levels[k][v]`` is set iff dist(v, w) <= k.
        Each level counts as n * ceil(n / 8) bytes; a graph whose levels would
        pass ``REACH_LEVEL_BUDGET`` is refused as soon as the next one would.
        Where n + 1 levels would pass it, one BFS first finds node 0's
        eccentricity, which is at most the diameter: if that many levels, the
        one before them and the one that finds the last would pass, the loop
        would refuse with the same count, so the graph is refused before any
        level is built.  No graph of 1000 nodes or fewer needs the BFS."""
        n = self.node_count
        level_bytes = n * -(-n // 8)
        if ((n + 1) * level_bytes > REACH_LEVEL_BUDGET
                and (self._eccentricity_of_0() + 2) * level_bytes > REACH_LEVEL_BUDGET):
            raise _past_budget(n, max(1, REACH_LEVEL_BUDGET // level_bytes))
        levels = [[1 << v for v in range(n)]]
        while True:
            if (len(levels) + 1) * level_bytes > REACH_LEVEL_BUDGET:
                raise _past_budget(n, len(levels))
            level = levels[-1]
            nxt = []
            for v, ns in enumerate(self.adjacency):
                reach = level[v]
                for w in ns:
                    reach |= level[w]
                nxt.append(reach)
            if nxt == level:
                return levels
            levels.append(nxt)

    def _eccentricity_of_0(self) -> int:
        """The hop distance from node 0 to the node farthest from it."""
        seen = bytearray(self.node_count)
        seen[0] = 1
        frontier, eccentricity = [0], -1
        while frontier:
            eccentricity += 1
            nxt = []
            for v in frontier:
                for w in self.adjacency[v]:
                    if not seen[w]:
                        seen[w] = 1
                        nxt.append(w)
            frontier = nxt
        return eccentricity


def _past_budget(n: int, count: int) -> InvalidConfig:
    return InvalidConfig(
        f"routing on {n} nodes needs more than {count} reach levels, "
        f"past the {REACH_LEVEL_BUDGET / 2**20:g} MiB budget"
    )


# The reach levels' budget: each level holds n ints of n bits, and there are
# diameter + 1 levels.  Far above sparse1000's (under 2 MiB) and a 1000-node
# path's (about 119 MiB); routing has no other path, so a graph past it is refused.
REACH_LEVEL_BUDGET = 256 << 20


def shortest_route(topo: NetworkTopology, src: int, dst: int) -> Route:
    """Minimum-hop route from src to dst, read from ``topo.levels``.

    Among equal-length routes the lexicographically smallest hop sequence is
    returned, which makes routing (and thus reverse paths) deterministic.
    """
    if not (0 <= src < topo.node_count and 0 <= dst < topo.node_count):
        raise InvalidConfig(f"invalid endpoints ({src}, {dst})")
    if src == dst:
        raise InvalidConfig(f"route requested from node {src} to itself")
    levels = topo.levels
    # bisect for d, the first level whose entry at src has dst's bit
    bit = 1 << dst
    lo, hi = 1, len(levels)
    while lo < hi:
        mid = (lo + hi) // 2
        if levels[mid][src] & bit:
            hi = mid
        else:
            lo = mid + 1
    if lo == len(levels):
        raise InvalidConfig(f"no path from {src} to {dst}")
    hops = [src]
    cur = src
    for level in levels[lo - 1::-1]:
        # adjacency is sorted, so the first neighbor one hop closer to dst is
        # the lexicographically smallest valid continuation
        for v in topo.adjacency[cur]:
            if level[v] & bit:
                break
        hops.append(v)
        cur = v
    return tuple(hops)
