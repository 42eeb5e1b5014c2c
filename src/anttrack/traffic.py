"""Per-tick traffic generation: background packets plus attack packets from
infected nodes.

Infection itself is scripted by the engine; a malicious packet reaching a
node never infects it, which keeps the ground truth exact for metrics.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass

from .topology import NetworkTopology, Route, shortest_route
from .transport import Packet


@dataclass(frozen=True)
class TrafficRates:
    """Fixed integer emission rates per tick."""

    good_packets_per_tick: int = 50
    attack_packets_per_infected_per_tick: int = 3

    def __post_init__(self):
        if self.good_packets_per_tick < 0:
            raise ValueError("good_packets_per_tick must be >= 0")
        if self.attack_packets_per_infected_per_tick < 1:
            raise ValueError("attack_packets_per_infected_per_tick must be >= 1")


class RouteMemo:
    """Routes memoised per (src, dst), and the per-destination hop-distance
    tables they were computed from, for one run.

    The engine creates one per run and drops it when the run returns, so a
    file or inline topology, which all the seeds of a sweep share, keeps no
    tables alive.  Routes are computed lazily: only pairs some packet takes,
    and only the distance tables of their destinations.
    """

    def __init__(self, topology: NetworkTopology):
        self._topology = topology
        self._routes: dict[tuple[int, int], Route] = {}
        self._distances: dict[int, list[int]] = {}

    def route(self, src: int, dst: int) -> Route:
        route = self._routes.get((src, dst))
        if route is None:
            route = self._routes[src, dst] = shortest_route(
                self._topology, src, dst, self._distances
            )
        return route


def _random_other(rng: random.Random, node_count: int, exclude: int) -> int:
    # exactly one draw regardless of outcome, so the stream stays aligned
    d = rng.randrange(node_count - 1)
    return d + 1 if d >= exclude else d


def generate_tick_traffic(
    topology: NetworkTopology,
    infected: Iterable[int],
    rates: TrafficRates,
    rng: random.Random,
    first_id: int,
    routes: RouteMemo,
) -> list[Packet]:
    """Packets entering the network this tick.

    Good packets come first with uniform random distinct endpoints, then
    each node of ``infected`` (ascending id) emits its attack packets toward
    uniform random other nodes.  Every packet starts at position 0 on its
    minimum-hop route, taken from ``routes``, which the caller keeps across
    ticks.  Ids are assigned sequentially from first_id.
    """
    route = routes.route
    n = topology.node_count
    packets: list[Packet] = []
    pid = first_id
    for _ in range(rates.good_packets_per_tick):
        src = rng.randrange(n)
        dst = _random_other(rng, n, src)
        packets.append(Packet(pid, False, route(src, dst)))
        pid += 1
    for node in sorted(infected):
        for _ in range(rates.attack_packets_per_infected_per_tick):
            dst = _random_other(rng, n, node)
            packets.append(Packet(pid, True, route(node, dst)))
            pid += 1
    return packets
