import random
import re

import pytest
from hypothesis import given, strategies as st

from anttrack.topology import NetworkTopology, TopologyError, shortest_route
from anttrack.engine import generate_random_topology

from conftest import grid_topology, is_valid_route, path_topology, reverse_route


def bfs_distance(topo: NetworkTopology, src: int, dst: int) -> int:
    """Independent breadth-first distance used as the routing oracle."""
    seen = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in topo.neighbors(u):
                if v not in seen:
                    seen[v] = seen[u] + 1
                    nxt.append(v)
        frontier = nxt
    return seen[dst]


def test_smallest_connected_graph():
    topo = NetworkTopology.from_edges(2, [(0, 1)])
    assert topo.node_count == 2
    assert len(topo.edges) == 1
    assert topo.neighbors(0) == (1,)


def test_path_adjacency_sorted():
    topo = NetworkTopology.from_edges(3, [(1, 2), (0, 1)])
    assert topo.neighbors(1) == (0, 2)


def test_disconnected_rejected():
    with pytest.raises(TopologyError, match=re.escape("nodes unreachable from node 0: [2]")) as exc:
        NetworkTopology.from_edges(3, [(0, 1)])
    assert exc.value.edge is None


# a fault of one pair gives the pair's index in the list, for the caller to
# name where it came from
def test_self_loop_rejected():
    with pytest.raises(TopologyError, match=re.escape("edge (0, 0) is a self-loop")) as exc:
        NetworkTopology.from_edges(2, [(0, 0), (0, 1)])
    assert exc.value.edge == 0


def test_duplicate_edge_rejected():
    with pytest.raises(TopologyError, match=re.escape("edge (0, 1) listed more than once")) as exc:
        NetworkTopology.from_edges(2, [(0, 1), (1, 0)])
    assert exc.value.edge == 1


def test_out_of_range_edge_rejected():
    with pytest.raises(
        TopologyError, match=re.escape("edge (0, 2) references a node outside [0, 2)")
    ) as exc:
        NetworkTopology.from_edges(2, [(0, 1), (0, 2)])
    assert exc.value.edge == 1


def test_route_on_path(path3):
    assert shortest_route(path3, 0, 2, {}) == (0, 1, 2)


def test_route_tie_break_on_cycle():
    cycle = NetworkTopology.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert shortest_route(cycle, 0, 2, {}) == (0, 1, 2)


def test_route_direct_edge_on_complete_graph():
    complete = NetworkTopology.from_edges(
        4, [(a, b) for a in range(4) for b in range(a + 1, 4)]
    )
    assert shortest_route(complete, 1, 3, {}) == (1, 3)


def test_route_same_node_rejected(path3):
    with pytest.raises(TopologyError, match=re.escape("route requested from node 1 to itself")):
        shortest_route(path3, 1, 1, {})


def test_route_invalid_endpoint_rejected(path3):
    with pytest.raises(TopologyError, match=re.escape("invalid endpoints (0, 7)")):
        shortest_route(path3, 0, 7, {})


def test_route_length_matches_bfs_oracle():
    rng = random.Random(1234)
    for _ in range(30):
        n = rng.randrange(2, 25)
        topo = generate_random_topology(n, rng.random() * 0.3, rng)
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                route = shortest_route(topo, src, dst, {})
                assert len(route) - 1 == bfs_distance(topo, src, dst)
                assert is_valid_route(topo, route)
                assert route[0] == src and route[-1] == dst


def test_route_deterministic():
    rng = random.Random(99)
    topo = generate_random_topology(20, 0.2, rng)
    for src, dst in [(0, 19), (3, 7), (15, 2)]:
        assert shortest_route(topo, src, dst, {}) == shortest_route(topo, src, dst, {})


def test_route_lexicographically_smallest():
    # brute-force enumeration of all minimum-hop paths as the tie-break oracle
    rng = random.Random(7)
    topo = generate_random_topology(9, 0.35, rng)

    def all_min_paths(src, dst):
        target = bfs_distance(topo, src, dst)
        paths = []
        stack = [(src, (src,))]
        while stack:
            node, path = stack.pop()
            if node == dst:
                if len(path) - 1 == target:
                    paths.append(path)
                continue
            if len(path) - 1 >= target:
                continue
            for v in topo.neighbors(node):
                if v not in path:
                    stack.append((v, path + (v,)))
        return paths

    for src in range(topo.node_count):
        for dst in range(topo.node_count):
            if src != dst:
                assert shortest_route(topo, src, dst, {}) == min(all_min_paths(src, dst))


def test_edge_ids_number_directions_in_sorted_order():
    topo = generate_random_topology(30, 0.1, random.Random(3))
    directions = sorted(topo.edges | {(b, a) for a, b in topo.edges})
    assert list(topo.edge_ids) == directions
    assert list(topo.edge_ids.values()) == list(range(len(directions)))


def test_route_distance_tables_are_cached_by_the_caller():
    topo = grid_topology(4, 4)
    distances = {}
    for src, dst in [(0, 15), (3, 15), (15, 0)]:
        assert shortest_route(topo, src, dst, distances) == shortest_route(topo, src, dst, {})
    assert sorted(distances) == [0, 15]


def test_reverse_route_examples():
    assert reverse_route((0, 1, 2)) == (2, 1, 0)
    assert reverse_route((0, 1)) == (1, 0)


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=12))
def test_reverse_route_involution(hops):
    route = tuple(hops)
    assert reverse_route(reverse_route(route)) == route


def test_reversed_route_still_valid(path10):
    route = shortest_route(path10, 0, 9, {})
    assert is_valid_route(path10, reverse_route(route))


@st.composite
def connected_graphs(draw):
    """A connected graph of at most 12 nodes: a random spanning tree plus
    extra edges."""
    n = draw(st.integers(min_value=2, max_value=12))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
    edges |= draw(st.sets(pair, max_size=20))
    return NetworkTopology.from_edges(n, sorted(edges))


@given(connected_graphs())
def test_route_matches_networkx_oracle(topo):
    nx = pytest.importorskip("networkx")
    graph = nx.Graph(sorted(topo.edges))
    for src in range(topo.node_count):
        for dst in range(topo.node_count):
            if src != dst:
                oracle = min(tuple(p) for p in nx.all_shortest_paths(graph, src, dst))
                assert shortest_route(topo, src, dst, {}) == oracle
