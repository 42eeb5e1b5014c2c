import hashlib
import math
import pickle
import random
import re

import networkx as nx
import pytest
from hypothesis import example, given, strategies as st

from anttrack import cli, topology
from anttrack.topology import InvalidConfig, NetworkTopology, shortest_route
from anttrack.traffic import TrafficRates, route_cache
from anttrack.engine import SimulationConfig, derive_rng, generate_random_topology
from anttrack.pheromone import PheromoneParams
from anttrack.transport import DetectorModel

from conftest import (
    SHIPPED_SCENARIOS, connected_graphs, directions, grid_topology, pairwise_random_edges,
    path_topology, reverse_route,
)


def undirected_edges(topo: NetworkTopology) -> set[tuple[int, int]]:
    """Each connection once, as its (a, b) direction with a < b."""
    return {(a, b) for a, b in directions(topo) if a < b}


def assert_routes_match_the_oracle(topo: NetworkTopology, pairs=None) -> None:
    """The routing oracle: each route of ``pairs``, every ordered pair of
    distinct nodes by default, is the least of networkx's shortest paths,
    and so a path of minimum length from its source to its destination."""
    graph = nx.Graph(directions(topo))
    n = topo.node_count
    for src, dst in pairs or [(s, d) for s in range(n) for d in range(n) if s != d]:
        oracle = min(map(tuple, nx.all_shortest_paths(graph, src, dst)))
        assert shortest_route(topo, src, dst) == oracle


def test_smallest_connected_graph():
    topo = NetworkTopology.from_edges(2, [(0, 1)])
    assert topo.node_count == 2
    assert topo.out_ids == {0: {1: 0}, 1: {0: 1}}
    assert topo.adjacency[0] == (1,)


def test_path_adjacency_sorted():
    topo = NetworkTopology.from_edges(3, [(1, 2), (0, 1)])
    assert topo.adjacency[1] == (0, 2)


def test_disconnected_rejected():
    with pytest.raises(InvalidConfig, match=re.escape("nodes unreachable from node 0: [2]")) as exc:
        NetworkTopology.from_edges(3, [(0, 1)])
    assert exc.value.edge is None


# The unreachable list stops at ten nodes, so a huge node count with few
# edges is named without listing every node.
@pytest.mark.parametrize(
    "node_count, message",
    [
        (12, "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11]"),
        (1000, "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 988 more"),
    ],
)
def test_unreachable_nodes_named_up_to_ten(node_count, message):
    with pytest.raises(InvalidConfig) as exc:
        NetworkTopology.from_edges(node_count, [(0, 1)])
    assert str(exc.value) == f"nodes unreachable from node 0: {message}"


# a fault of one pair gives the pair's index in the list, for the caller to
# name where it came from
def test_self_loop_rejected():
    with pytest.raises(InvalidConfig, match=re.escape("edge (0, 0) is a self-loop")) as exc:
        NetworkTopology.from_edges(2, [(0, 0), (0, 1)])
    assert exc.value.edge == 0


def test_duplicate_edge_rejected():
    with pytest.raises(InvalidConfig, match=re.escape("edge (0, 1) listed more than once")) as exc:
        NetworkTopology.from_edges(2, [(0, 1), (1, 0)])
    assert exc.value.edge == 1


def test_out_of_range_edge_rejected():
    with pytest.raises(
        InvalidConfig, match=re.escape("edge (0, 2) references a node outside [0, 2)")
    ) as exc:
        NetworkTopology.from_edges(2, [(0, 1), (0, 2)])
    assert exc.value.edge == 1


def test_route_on_path(path3):
    assert shortest_route(path3, 0, 2) == (0, 1, 2)


def test_route_tie_break_on_cycle():
    cycle = NetworkTopology.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert shortest_route(cycle, 0, 2) == (0, 1, 2)


def test_route_direct_edge_on_complete_graph():
    complete = NetworkTopology.from_edges(
        4, [(a, b) for a in range(4) for b in range(a + 1, 4)]
    )
    assert shortest_route(complete, 1, 3) == (1, 3)


def test_route_same_node_rejected(path3):
    with pytest.raises(InvalidConfig, match=re.escape("route requested from node 1 to itself")):
        shortest_route(path3, 1, 1)


def test_route_invalid_endpoint_rejected(path3):
    with pytest.raises(InvalidConfig, match=re.escape("invalid endpoints (0, 7)")):
        shortest_route(path3, 0, 7)


# every check on the package's input raises the one error type
@pytest.mark.parametrize(
    "check",
    [
        pytest.param(lambda: PheromoneParams(decay=1), id="PheromoneParams"),
        pytest.param(lambda: TrafficRates(-1, 1), id="TrafficRates"),
        pytest.param(lambda: DetectorModel(2.0), id="DetectorModel"),
        pytest.param(lambda: SimulationConfig(path_topology(2), max_ticks=0), id="SimulationConfig"),
        pytest.param(lambda: NetworkTopology.from_edges(0, []), id="from_edges"),
        pytest.param(lambda: shortest_route(path_topology(3), 1, 1), id="shortest_route"),
        # from_edges rejects a disconnected graph, so only a raw one has no path
        pytest.param(
            lambda: shortest_route(NetworkTopology(3, ((1,), (0,), ())), 0, 2),
            id="shortest_route_no_path",
        ),
        pytest.param(
            lambda: generate_random_topology(5, 1.5, random.Random(0)),
            id="generate_random_topology",
        ),
    ],
)
def test_input_check_raises_invalid_config(check):
    with pytest.raises(InvalidConfig):
        check()


def test_reach_levels_stop_at_the_byte_budget(monkeypatch):
    # a 10-node path has 10 levels of 10 * 2 bytes, and an 11th is built to
    # find that the 10th is the last
    monkeypatch.setattr(topology, "REACH_LEVEL_BUDGET", 11 * 20)
    assert len(path_topology(10).levels) == 10
    monkeypatch.setattr(topology, "REACH_LEVEL_BUDGET", 11 * 20 - 1)
    with pytest.raises(InvalidConfig) as exc:
        path_topology(10).levels
    assert str(exc.value) == (
        f"routing on 10 nodes needs more than 10 reach levels, past the {219 / 2**20:g} MiB budget"
    )


def test_config_builds_the_reach_levels_and_is_refused_past_their_budget(monkeypatch):
    # a config that builds can run: its topology's levels are built with it
    topo = path_topology(10)
    SimulationConfig(topo)
    assert len(vars(topo)["levels"]) == 10
    monkeypatch.setattr(topology, "REACH_LEVEL_BUDGET", 11 * 20 - 1)
    with pytest.raises(InvalidConfig) as exc:
        SimulationConfig(path_topology(10))
    assert str(exc.value) == (
        f"routing on 10 nodes needs more than 10 reach levels, past the {219 / 2**20:g} MiB budget"
    )


def test_reach_level_budget_far_above_every_shipped_topology():
    for path in SHIPPED_SCENARIOS:
        topo = cli.build_config(cli.parse_scenario(path)).topology
        n = topo.node_count
        assert 100 * (len(topo.levels) + 1) * n * -(-n // 8) <= topology.REACH_LEVEL_BUDGET


@given(
    st.integers(min_value=2, max_value=80),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    st.integers(),
)
# a pair's draw is settled by its top byte t, in [t/256, (t+1)/256), unless
# p falls inside that range: none does at 1/256 and 2/256; t = 0 does just
# below 1/256 and t = 1 just above; then the extremes, the smallest graph, a
# complete one, and sparse1000's size
@example(80, 1 / 256, 11)
@example(80, 2 / 256, 12)
@example(80, math.nextafter(1 / 256, 0), 13)
@example(80, math.nextafter(1 / 256, 1), 14)
@example(80, 5e-324, 15)
@example(80, 1 - 2**-53, 16)
@example(80, 1.0, 17)
@example(2, 0.0, 0)
@example(8, 1.0, 0)
@example(1000, 0.001, 18)
def test_random_topology_draws_as_the_pairwise_oracle(node_count, extra_edge_prob, seed):
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    topo = generate_random_topology(node_count, extra_edge_prob, rng)
    assert undirected_edges(topo) == pairwise_random_edges(node_count, extra_edge_prob, oracle_rng)
    assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize(
    "seed, edge_count, digest",
    [
        (0, 1490, "0ecc172cf2caecd6"),
        (1, 1489, "9d4f945748318d7c"),
        (2, 1493, "da3338064603117a"),
        (3, 1482, "5b067b4e00aab78e"),
        (4, 1530, "898a0f8b42016539"),
    ],
)
def test_random_topology_1000_nodes_pinned(seed, edge_count, digest):
    """Graphs of sparse1000's size and extra-edge probability, pinned by
    their edge count and the sha256 of their sorted edge list's repr."""
    edges = sorted(undirected_edges(generate_random_topology(1000, 0.001, derive_rng(seed, "topology"))))
    assert len(edges) == edge_count
    assert hashlib.sha256(repr(edges).encode()).hexdigest()[:16] == digest


def test_route_deterministic():
    rng = random.Random(99)
    topo = generate_random_topology(20, 0.2, rng)
    # a twin of the same graph builds its own reach levels
    twin = NetworkTopology(topo.node_count, topo.adjacency)
    for src, dst in [(0, 19), (3, 7), (15, 2)]:
        assert shortest_route(topo, src, dst) == shortest_route(twin, src, dst)


def test_edge_ids_number_directions_in_sorted_order():
    topo = generate_random_topology(30, 0.1, random.Random(3))
    expected = sorted((u, v) for u, ns in enumerate(topo.adjacency) for v in ns)
    rows = topo.out_ids
    assert list(rows) == list(range(topo.node_count))
    assert [(u, v) for u, row in rows.items() for v in row] == expected
    assert [i for row in rows.values() for i in row.values()] == list(range(len(expected)))
    # the agents' pair rows: u's (v, id) pairs in ascending v, with the CSR
    # ids counted here from the (u, v) enumeration, not read from out_ids
    pairs = topo.out_pairs
    assert len(pairs) == topo.node_count
    assert [(u, v, i) for u, row in enumerate(pairs) for v, i in row] == [
        (u, v, i) for i, (u, v) in enumerate(expected)
    ]


def test_route_levels_are_built_once_and_kept_with_the_topology():
    topo = grid_topology(4, 4)
    with pytest.raises(InvalidConfig):
        shortest_route(topo, 5, 5)
    assert "levels" not in vars(topo)
    assert "out_pairs" not in vars(topo)
    pairs = topo.out_pairs
    assert vars(topo)["out_pairs"] is pairs and topo.out_pairs is pairs
    assert shortest_route(topo, 0, 15) == (0, 1, 2, 3, 7, 11, 15)
    built = topo.levels
    assert len(built) == nx.diameter(nx.Graph(directions(topo))) + 1 == 7
    assert_routes_match_the_oracle(topo, [(3, 15), (15, 0), (5, 6)])
    assert topo.levels is built
    # the derived tables are not fields: equality and repr see the graph only
    assert topo == grid_topology(4, 4) and repr(topo) == repr(grid_topology(4, 4))
    # a route cache builds the levels on its first lookup, not before
    topo = grid_topology(4, 4)
    routes = route_cache(topo)
    assert "levels" not in vars(topo)
    routes(0, 15)
    assert len(topo.levels) == 7


def test_pickled_topology_is_rebuilt_without_its_tables():
    """A pooled sweep's worker unpickles the topology: it gets the graph
    alone, as a fresh instance, and builds its own tables."""
    topo = grid_topology(4, 4)
    built = topo.levels, topo.out_pairs
    copy = pickle.loads(pickle.dumps(topo))
    assert copy == topo and copy is not topo
    assert vars(copy) == {"node_count": 16, "adjacency": topo.adjacency}
    assert (copy.levels, copy.out_pairs) == built


def test_route_along_a_long_path():
    topo = path_topology(200)
    assert shortest_route(topo, 0, 199) == tuple(range(200))
    assert shortest_route(topo, 199, 0) == tuple(range(199, -1, -1))
    assert len(topo.levels) == 200


def test_route_across_a_grid_takes_the_smallest_of_its_ties():
    topo = grid_topology(6, 6)
    graph = nx.Graph(directions(topo))
    for src, dst in [(0, 35), (35, 0), (5, 30), (30, 5)]:
        paths = list(map(tuple, nx.all_shortest_paths(graph, src, dst)))
        assert len(paths) == 252
        assert shortest_route(topo, src, dst) == min(paths)


def test_route_on_a_sparse_random_graph_matches_networkx_oracle():
    topo = generate_random_topology(300, 0.005, random.Random(5))
    rng = random.Random(6)
    assert_routes_match_the_oracle(topo, [rng.sample(range(topo.node_count), 2) for _ in range(200)])


def test_route_length_matches_bfs_oracle():
    """Every pair of thirty graphs of 2 to 24 nodes drawn from one seeded
    generator.  networkx finds the shortest paths of an unweighted graph by
    breadth-first search."""
    rng = random.Random(1234)
    for _ in range(30):
        assert_routes_match_the_oracle(
            generate_random_topology(rng.randrange(2, 25), rng.random() * 0.3, rng))


def test_route_lexicographically_smallest():
    """Every pair of one denser 9-node graph, where many pairs tie."""
    assert_routes_match_the_oracle(generate_random_topology(9, 0.35, random.Random(7)))


def test_reverse_route_examples():
    assert reverse_route((0, 1, 2)) == (2, 1, 0)
    assert reverse_route((0, 1)) == (1, 0)


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=12))
def test_reverse_route_involution(hops):
    route = tuple(hops)
    assert reverse_route(reverse_route(route)) == route


def test_reversed_route_still_valid(path10):
    """On a path the only route back is the route out, reversed."""
    assert reverse_route(shortest_route(path10, 0, 9)) == shortest_route(path10, 9, 0)


@given(connected_graphs())
def test_route_matches_networkx_oracle(topo):
    assert_routes_match_the_oracle(topo)
