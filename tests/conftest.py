import io
import random
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import strategies as st

from anttrack import cli, engine
from anttrack.engine import Metrics, SimulationConfig, event_log, run
from anttrack.topology import NetworkTopology, Route, shortest_route
from anttrack.traffic import TrafficRates
from anttrack.transport import DetectorModel

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED_SCENARIOS = [*SCENARIOS.glob("*.scn"), SCENARIOS.parent / "perfbench" / "sparse1000.scn"]


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


def directions(topo: NetworkTopology) -> list[tuple[int, int]]:
    """Every directed connection (u, v) in edge-id order, read from the
    adjacency lists alone: u ascending, then u's sorted neighbours."""
    return [(u, v) for u, ns in enumerate(topo.adjacency) for v in ns]


@st.composite
def connected_graphs(draw):
    """A connected graph of at most 12 nodes: a random spanning tree plus
    extra edges."""
    n = draw(st.integers(min_value=2, max_value=12))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
    edges |= draw(st.sets(pair, max_size=20))
    return NetworkTopology.from_edges(n, sorted(edges))


def logged_run(config: SimulationConfig) -> tuple[Metrics, list[str]]:
    """Run with the event log streamed into memory; the metrics and the
    log's record lines."""
    log = io.StringIO()
    metrics = run(replace(config, sink=event_log(config.topology, log.write)))
    return metrics, log.getvalue().splitlines()


def packet_config(topology, *, good=0, attack=1, infected=(), detect=1.0, fp=0.0, ticks=4, seed=0):
    """A run without agents: ``good`` clean packets a tick, and ``attack``
    malicious ones a tick from each node of ``infected``, infected at tick 0."""
    return SimulationConfig(
        topology, rates=TrafficRates(good, attack), detector=DetectorModel(detect, fp), ant_count=0,
        infections=tuple((0, node) for node in infected), max_ticks=ticks, seed=seed,
    )


class Tick(NamedTuple):
    """One tick as the event log shows it, each list in log order: the
    spawns, as (id, src, dst, malicious); the ends, as (id, event, node);
    and the confirmation writes, as (u, v, kind, value)."""

    spawns: list[tuple[int, int, int, bool]]
    ends: list[tuple[int, str, int]]
    writes: list[tuple[int, int, str, float]]


class CountingRandom(random.Random):
    """A generator that counts its ``random()`` calls in ``draws``."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def run_records(config: SimulationConfig) -> tuple[list[Tick], int]:
    """Run ``config`` through ``logged_run``; its records, one ``Tick`` per
    tick read from the log's PKT and PHERO lines, and the number of draws
    the detector made, counted on the run's ``"detect"`` substream."""
    detect, derive_rng = CountingRandom(), engine.derive_rng

    def counting_derive_rng(seed, tag):
        rng = derive_rng(seed, tag)
        if tag != "detect":
            return rng
        detect.setstate(rng.getstate())
        return detect

    with mock.patch.object(engine, "derive_rng", counting_derive_rng):
        _, lines = logged_run(config)
    ticks = [Tick([], [], []) for _ in range(config.max_ticks)]
    for line in lines:
        record, tick, *fields = line.split(",")
        if record == "PHERO":
            u, v, kind, value = fields
            ticks[int(tick)].writes.append((int(u), int(v), kind, float(value)))
        elif record == "PKT" and fields[0] == "spawn":
            pid, src, dst, malicious = map(int, fields[1:])
            ticks[int(tick)].spawns.append((pid, src, dst, malicious == 1))
        elif record == "PKT":
            event, pid, node = fields
            ticks[int(tick)].ends.append((int(pid), event, int(node)))
    return ticks, detect.draws


def expected_writes(config: SimulationConfig, ticks: list[Tick]) -> list[list[tuple]]:
    """Each tick's confirmation writes, derived from the PKT records alone.
    A packet that ended at tick T at position p of ``shortest_route(src,
    dst)`` writes ``route[p] -> route[p - 1]`` at tick T + 1, then the next
    hop back on each tick after, down to position 0: bad if it was
    detected, good if it was delivered.  Within a tick the writes come in
    (end tick, end order).  Each write's value is the direction's last one
    boosted by a bad write or decayed by a good one, as the log prints it."""
    routes = {pid: shortest_route(config.topology, src, dst)
              for tick in ticks for pid, src, dst, _ in tick.spawns}
    expected = [[] for _ in ticks]
    for t, tick in enumerate(ticks):
        for pid, event, node in tick.ends:
            route = routes[pid]
            back = route[route.index(node)::-1]
            kind = "bad" if event == "detected" else "good"
            for writes, u, v in zip(expected[t + 1:], back, back[1:]):
                writes.append((u, v, kind))
    levels, params = {}, config.params
    for writes in expected:
        for i, (u, v, kind) in enumerate(writes):
            old = levels.get((u, v), 0.0)
            value = levels[u, v] = old + params.increase if kind == "bad" else old * params.decay
            writes[i] = (u, v, kind, float(f"{value:.9g}"))
    return expected


def expected_draws(ticks: list[Tick]) -> int:
    """The detector draws a run makes, from the PKT records alone: one for
    each tick a malicious packet moves, from its spawn tick to its end tick
    or the last tick, and one for each clean packet that reached its
    destination."""
    ends = {pid: (t, node) for t, tick in enumerate(ticks) for pid, _, node in tick.ends}
    draws = 0
    for t, tick in enumerate(ticks):
        for pid, _, dst, malicious in tick.spawns:
            end_tick, node = ends.get(pid, (len(ticks) - 1, None))
            draws += end_tick - t + 1 if malicious else node == dst
    return draws


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
