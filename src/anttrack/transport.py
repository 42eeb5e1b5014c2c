"""A packet's life: its record, the detector that judges it at each hop, and
its one-hop-per-tick movement out and back.

A packet travels forward from ``route[0]``, one hop per tick.  The detector
is asked only where it draws: at every hop of a malicious packet, and at a
clean packet's destination; a clean packet at an intermediate hop only
advances its position.  When a packet is detected or delivered it ends, and
the same record is both its outcome and its confirmation: ``bad`` becomes
True if it was detected and False if it was delivered, ``event`` names that
outcome, and ``route[position]`` is the node where it ended until it walks
back toward its source along its own route, one hop per tick.
Confirmations update the directed pheromone state of every connection they
traverse: bad confirmations boost it, clean confirmations decay it.  That
direction of travel is what makes the resulting trails point at attack
sources.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .pheromone import PheromoneField, PheromoneParams
from .topology import InvalidConfig, Route


@dataclass(slots=True)
class Packet:
    """A packet at ``route[position]``.  While ``bad`` is None it travels
    from ``route[0]`` to ``route[-1]``; once it ends, ``bad`` is True if it
    was detected and False if it was delivered, and it walks back toward
    ``route[0]`` as its own confirmation."""

    id: int
    malicious: bool
    route: Route
    position: int = 0
    bad: bool | None = None

    @property
    def event(self) -> str:
        """An ended packet's outcome: "detected" or "delivered"."""
        return "detected" if self.bad else "delivered"


@dataclass(frozen=True)
class DetectorModel:
    """Probabilistic stand-in for the per-node intrusion detector.

    Real packet inspection is out of scope; a detector is two probabilities:
    the per-hop chance of recognizing a malicious packet, and the
    per-delivery chance of wrongly flagging a clean one.
    """

    detect_prob: float = 1.0
    false_positive_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.detect_prob <= 1.0:
            raise InvalidConfig(f"detect_prob must be in [0, 1], got {self.detect_prob}")
        if not 0.0 <= self.false_positive_prob <= 1.0:
            raise InvalidConfig(
                f"false_positive_prob must be in [0, 1], got {self.false_positive_prob}"
            )


def inspect_at_hop(packet: Packet, detector: DetectorModel, rng: random.Random) -> bool:
    """One detector draw: True if it flags the packet, with ``detect_prob``
    for a malicious packet and ``false_positive_prob`` for a clean one.
    ``advance_packets`` alone decides at which hops the draws happen."""
    prob = detector.detect_prob if packet.malicious else detector.false_positive_prob
    return rng.random() < prob


@dataclass
class InFlight:
    """Everything currently traveling through the network: packets moving
    forward, and ended packets walking back as confirmations."""

    packets: list[Packet] = field(default_factory=list)
    confirmations: list[Packet] = field(default_factory=list)


def advance_packets(
    state: InFlight, detector: DetectorModel, rng: random.Random
) -> tuple[list[Packet], list[Packet]]:
    """Advance every packet one hop and run the detector at the new hop where
    it draws: every hop of a malicious packet, a clean one's destination.

    Detection ends the packet as a bad confirmation at the detecting node.
    Delivery (including a malicious packet that evaded every check: the
    destination believes it is clean) ends it as a clean confirmation at the
    destination.  Ended packets are returned in end order, not inserted, so
    they start walking back only on the next tick; until then each is its
    own outcome record, through ``id``, ``event`` and ``route[position]``.
    The one list is returned as both elements of the ``(spawned, outcomes)``
    pair, kept only because ``perfbench/tracer.py`` unpacks it: once the
    benchmark stops wrapping library names, the list alone will do.
    """
    survivors: list[Packet] = []
    ended: list[Packet] = []
    keep = survivors.append
    for pkt in state.packets:
        position = pkt.position = pkt.position + 1
        route = pkt.route
        if not pkt.malicious and position < len(route) - 1:
            keep(pkt)
            continue
        if inspect_at_hop(pkt, detector, rng):
            pkt.bad = True
        elif route[position] == route[-1]:
            pkt.bad = False
        else:
            keep(pkt)
            continue
        ended.append(pkt)
    state.packets = survivors
    return ended, ended


def advance_confirmations(
    state: InFlight, pheromones: PheromoneField, params: PheromoneParams
) -> list[float]:
    """Advance every confirmation one hop back along its route, updating the
    pheromone state of the directed connection it traverses.  Returns each
    traversal's new value, in the order of ``state.confirmations`` on entry,
    which it replaces with a new list, without those that reached the source.
    """
    survivors: list[Packet] = []
    values: list[float] = []
    keep, record = survivors.append, values.append
    apply_bad, apply_good = pheromones.apply_bad, pheromones.apply_good
    for conf in state.confirmations:
        route, position = conf.route, conf.position - 1
        conf.position = position
        record((apply_bad if conf.bad else apply_good)(
            route[position + 1], route[position], params))
        if position:
            keep(conf)
    state.confirmations = survivors
    return values
