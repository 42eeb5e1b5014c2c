"""Per-tick traffic generation: background packets plus attack packets from
infected nodes.

Infection itself is scripted by the engine; a malicious packet reaching a
node never infects it, which keeps the ground truth exact for metrics.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cache, partial

from .topology import InvalidConfig, NetworkTopology, Route, shortest_route
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


def route_cache(topology: NetworkTopology) -> Callable[[int, int], Route]:
    """Routes cached for one run: ``routes(src, dst)`` is the minimum-hop
    route from src to dst, computed on the first call for the pair."""
    return cache(partial(shortest_route, topology))


def generate_tick_traffic(
    topology: NetworkTopology,
    infected: Iterable[int],
    rates: TrafficRates,
    rng: random.Random,
    first_id: int,
    routes: Callable[[int, int], Route],
) -> list[Packet]:
    """Packets entering the network this tick.

    Good packets come first with uniform random distinct endpoints, then
    each node of ``infected`` (ascending id) emits its attack packets toward
    uniform random other nodes.  Every packet starts at position 0 on its
    minimum-hop route, taken from ``routes``, which the caller keeps across
    ticks.  Ids are assigned sequentially from first_id.
    """
    n = topology.node_count
    if n < 2:
        raise ValueError(f"traffic needs two nodes for distinct endpoints, got {n}")
    # randbelow(getrandbits, n) and randbelow(getrandbits, n - 1) without
    # their calls, as ant_step draws: the same words, so the same endpoints
    # and the same generator state
    getrandbits = rng.getrandbits
    k, k1 = n.bit_length(), (n - 1).bit_length()
    packets: list[Packet] = []
    append = packets.append
    good = rates.good_packets_per_tick
    for pid in range(first_id, first_id + good):
        src = getrandbits(k)
        while src >= n:
            src = getrandbits(k)
        # exactly one draw for the other endpoint regardless of outcome, so
        # the stream stays aligned
        dst = getrandbits(k1)
        while dst >= n - 1:
            dst = getrandbits(k1)
        if dst >= src:
            dst += 1
        append(Packet(pid, False, routes(src, dst)))
    pid = first_id + good
    for node in sorted(infected):
        for _ in range(rates.attack_packets_per_infected_per_tick):
            dst = getrandbits(k1)
            while dst >= n - 1:
                dst = getrandbits(k1)
            if dst >= node:
                dst += 1
            append(Packet(pid, True, routes(node, dst)))
            pid += 1
    return packets
