import io
from dataclasses import replace

import pytest

from anttrack.engine import Metrics, SimulationConfig, run
from anttrack.topology import NetworkTopology, Route


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


def reverse_route(route: Route) -> Route:
    """Reversed hop sequence; valid because edges are undirected."""
    return tuple(reversed(route))


def is_valid_route(topo: NetworkTopology, route: Route) -> bool:
    """True if route is a simple path over existing connections."""
    if len(route) < 2 or len(set(route)) != len(route):
        return False
    return all(topo.has_edge(a, b) for a, b in zip(route, route[1:]))


def logged_run(config: SimulationConfig) -> tuple[Metrics, list[str]]:
    """Run with the event log streamed into memory; the metrics and the
    log's record lines."""
    log = io.StringIO()
    metrics = run(replace(config, log=log.write))
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
