"""Per-tick traffic generation: background packets plus attack packets from
infected nodes.

Infection itself is scripted by the engine; a malicious packet reaching a
node never infects it, which keeps the ground truth exact for metrics.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass

from .topology import InvalidConfig, NetworkTopology, Route, randbelow, shortest_route
from .transport import Packet


# Far above any shipped scenario (50 and 3 at most): a larger rate only
# exhausts memory in the first tick's packets, so it is rejected by name.
MAX_GOOD_PACKETS_PER_TICK = 10_000
MAX_ATTACK_PACKETS_PER_INFECTED_PER_TICK = 1_000


@dataclass(frozen=True)
class TrafficRates:
    """Fixed integer emission rates per tick."""

    good_packets_per_tick: int = 50
    attack_packets_per_infected_per_tick: int = 3

    def __post_init__(self):
        good, attack = self.good_packets_per_tick, self.attack_packets_per_infected_per_tick
        if good < 0:
            raise InvalidConfig(f"good_packets_per_tick must be >= 0, got {good}")
        if attack < 1:
            raise InvalidConfig(f"attack_packets_per_infected_per_tick must be >= 1, got {attack}")
        if good > MAX_GOOD_PACKETS_PER_TICK:
            raise InvalidConfig(
                f"good_packets_per_tick must be <= {MAX_GOOD_PACKETS_PER_TICK}, got {good}"
            )
        if attack > MAX_ATTACK_PACKETS_PER_INFECTED_PER_TICK:
            raise InvalidConfig(
                "attack_packets_per_infected_per_tick must be <= "
                f"{MAX_ATTACK_PACKETS_PER_INFECTED_PER_TICK}, got {attack}"
            )


class RouteMemo(dict):
    """Routes memoised in a dict keyed ``(src, dst)``, and the reach levels
    they were computed from, for one run: ``memo[src, dst]`` is the
    minimum-hop route from src to dst.

    The memo owns the levels it passes to ``shortest_route``.  The engine
    creates one memo per run and drops it when the run returns, so a file or
    inline topology, which all the seeds of a sweep share, keeps no levels
    alive.  Routes are computed on the first lookup of a pair, and the
    levels on the first lookup of any pair: an unused memo builds nothing.
    """

    def __init__(self, topology: NetworkTopology):
        super().__init__()
        self._topology = topology
        self._levels: list[list[int]] = []

    def __missing__(self, pair: tuple[int, int]) -> Route:
        src, dst = pair
        route = self[pair] = shortest_route(self._topology, src, dst, self._levels)
        return route


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
    getrandbits = rng.getrandbits
    n = topology.node_count
    packets: list[Packet] = []
    pid = first_id
    for _ in range(rates.good_packets_per_tick):
        src = randbelow(getrandbits, n)
        # exactly one draw for the other endpoint regardless of outcome, so
        # the stream stays aligned
        dst = randbelow(getrandbits, n - 1)
        if dst >= src:
            dst += 1
        packets.append(Packet(pid, False, routes[src, dst]))
        pid += 1
    for node in sorted(infected):
        for _ in range(rates.attack_packets_per_infected_per_tick):
            dst = randbelow(getrandbits, n - 1)
            if dst >= node:
                dst += 1
            packets.append(Packet(pid, True, routes[node, dst]))
            pid += 1
    return packets
