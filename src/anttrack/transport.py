"""One-hop-per-tick movement of packets and confirmation packets.

A packet that is detected or delivered spawns exactly one confirmation,
which walks back toward the packet's source along the packet's own route,
one hop per tick, from the hop where the packet ended.  Confirmations update
the directed pheromone state of every connection they traverse: bad
confirmations boost it, clean confirmations decay it.  That direction of
travel is what makes the resulting trails point at attack sources.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .detection import DetectorModel, inspect_at_hop
from .pheromone import PheromoneEvent, PheromoneField, PheromoneParams
from .topology import Route
from .traffic import Packet


@dataclass
class ConfirmationPacket:
    """A confirmation at ``route[position]``, walking back toward
    ``route[0]``; ``route`` is the ended packet's own route."""

    kind: PheromoneEvent
    route: Route
    position: int


@dataclass
class InFlight:
    """Everything currently traveling through the network."""

    packets: list[Packet] = field(default_factory=list)
    confirmations: list[ConfirmationPacket] = field(default_factory=list)


@dataclass(frozen=True)
class PacketOutcome:
    """Terminal event for one packet: 'detected' or 'delivered' at a node."""

    packet_id: int
    event: str
    node: int


def advance_packets(
    state: InFlight, detector: DetectorModel, rng: random.Random
) -> tuple[list[ConfirmationPacket], list[PacketOutcome]]:
    """Advance every packet one hop and run the detector at the new hop.

    Detection removes the packet and spawns a bad confirmation at the
    detecting node.  Delivery (including a malicious packet that evaded
    every check: the destination believes it is clean) removes the packet
    and spawns a clean confirmation at the destination.  Spawned
    confirmations are returned, not inserted, so they start moving only on
    the next tick.
    """
    survivors: list[Packet] = []
    spawned: list[ConfirmationPacket] = []
    outcomes: list[PacketOutcome] = []
    for pkt in state.packets:
        pkt.position += 1
        route = pkt.route
        node = route[pkt.position]
        if inspect_at_hop(pkt, node, detector, rng):
            kind, event = PheromoneEvent.BAD, "detected"
        elif node == route[-1]:
            kind, event = PheromoneEvent.GOOD, "delivered"
        else:
            survivors.append(pkt)
            continue
        spawned.append(ConfirmationPacket(kind, route, pkt.position))
        outcomes.append(PacketOutcome(pkt.id, event, node))
    state.packets = survivors
    return spawned, outcomes


def advance_confirmations(
    state: InFlight, pheromones: PheromoneField, params: PheromoneParams
) -> list[tuple[int, int, PheromoneEvent, float]]:
    """Advance every confirmation one hop back along its route, updating the
    pheromone state of the directed connection it traverses.  Returns one
    (from, to, kind, new value) record per traversal; confirmations that
    reach the route's source are removed.
    """
    survivors: list[ConfirmationPacket] = []
    updates: list[tuple[int, int, PheromoneEvent, float]] = []
    for conf in state.confirmations:
        u = conf.route[conf.position]
        conf.position -= 1
        v = conf.route[conf.position]
        if conf.kind is PheromoneEvent.BAD:
            new_value = pheromones.apply_bad(u, v, params)
        else:
            new_value = pheromones.apply_good(u, v, params)
        updates.append((u, v, conf.kind, new_value))
        if conf.position:
            survivors.append(conf)
    state.confirmations = survivors
    return updates
