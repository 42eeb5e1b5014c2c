import io
import random
from dataclasses import replace
from pathlib import Path

import pytest

from anttrack import cli
from anttrack.engine import Metrics, SimulationConfig, event_log, run
from anttrack.pheromone import PheromoneField
from anttrack.topology import NetworkTopology, Route

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_config(name: str, overrides=(), seed: int | None = None) -> SimulationConfig:
    """The config ``anttrack run`` builds from the shipped
    ``scenarios/<name>.scn`` with ``--set`` ``overrides``; the scenario's own
    seed when ``seed`` is None."""
    return cli.build_config(cli.parse_scenario(SCENARIOS / f"{name}.scn", overrides), seed)


def path_topology(n: int) -> NetworkTopology:
    return NetworkTopology.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_topology(n: int) -> NetworkTopology:
    return NetworkTopology.from_edges(n, [(0, i) for i in range(1, n)])


def grid_topology(rows: int, cols: int) -> NetworkTopology:
    edges = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows:
                edges.append((node, node + cols))
    return NetworkTopology.from_edges(rows * cols, edges)


def pairwise_random_edges(node_count: int, extra_edge_prob: float, rng: random.Random) -> set[tuple[int, int]]:
    """The random graph drawn pair by pair: the oracle for
    ``generate_random_topology``.  Shuffle, a spanning tree that joins each
    node in shuffled order to a random earlier one, then one draw for every
    node pair in ascending order that is not a tree edge."""
    order = list(range(node_count))
    rng.shuffle(order)
    edges = set()
    for i in range(1, node_count):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((a, b) if a < b else (b, a))
    for a in range(node_count):
        for b in range(a + 1, node_count):
            if (a, b) not in edges and rng.random() < extra_edge_prob:
                edges.add((a, b))
    return edges


def reverse_route(route: Route) -> Route:
    """Reversed hop sequence; valid because edges are undirected."""
    return tuple(reversed(route))


def confirmation_path(conf) -> Route:
    """The hops a confirmation has still to visit, from where it is now back
    to its packet's source."""
    return conf.route[conf.position::-1]


def directions(topo: NetworkTopology) -> list[tuple[int, int]]:
    """Every directed connection (u, v) in edge-id order, read from the
    adjacency lists alone: u ascending, then u's sorted neighbours."""
    return [(u, v) for u, ns in enumerate(topo.adjacency) for v in ns]


def is_valid_route(topo: NetworkTopology, route: Route) -> bool:
    """True if route is a simple path over existing connections."""
    if len(route) < 2 or len(set(route)) != len(route):
        return False
    return set(zip(route, route[1:])) <= set(directions(topo))


class RecordingField(PheromoneField):
    """A field that also records as the keys of ``written`` every direction a
    write crossed, in the order of each direction's first write."""

    def __init__(self, topology: NetworkTopology):
        super().__init__(topology)
        self.written: dict[tuple[int, int], None] = {}

    def apply_good(self, from_node, to_node, params):
        self.written[from_node, to_node] = None
        return super().apply_good(from_node, to_node, params)

    def apply_bad(self, from_node, to_node, params):
        self.written[from_node, to_node] = None
        return super().apply_bad(from_node, to_node, params)


def logged_run(config: SimulationConfig) -> tuple[Metrics, list[str]]:
    """Run with the event log streamed into memory; the metrics and the
    log's record lines."""
    log = io.StringIO()
    metrics = run(replace(config, sink=event_log(config.topology, log.write)))
    return metrics, log.getvalue().splitlines()


@pytest.fixture
def path3():
    return path_topology(3)


@pytest.fixture
def path10():
    return path_topology(10)


@pytest.fixture
def star10():
    return star_topology(10)


@pytest.fixture
def grid4x4():
    return grid_topology(4, 4)
