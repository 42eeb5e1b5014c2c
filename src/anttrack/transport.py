"""A packet's life: its record, the detector that judges it, and its
movement out and back.

A packet travels forward from ``route[0]``.  The detector is asked only
where it draws: at every hop of a malicious packet, and at a clean packet's
destination.  So a malicious packet moves one hop per tick, but a clean
packet's intermediate hops, which change nothing, are not simulated: it is
filed at spawn under the tick it reaches its destination (a timing wheel:
Varghese & Lauck, "Hashed and hierarchical timing wheels", SOSP 1987), its
``position`` stays 0 until then and jumps to its last index when it ends.
When a packet is detected or delivered it ends, and the same record is both
its outcome and its confirmation: ``bad`` becomes True if it was detected
and False if it was delivered, ``event`` names that outcome, and
``route[position]`` is the node where it ended until it walks back toward
its source along its own route, one hop per tick, as PAPER.md says.
Confirmations update the directed pheromone state of every connection they
traverse: bad confirmations boost it, clean confirmations decay it.  That
direction of travel is what makes the resulting trails point at attack
sources.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from operator import attrgetter

from .pheromone import PheromoneField, PheromoneParams
from .topology import InvalidConfig, Route


@dataclass(slots=True)
class Packet:
    """A packet at ``route[position]``.  While ``bad`` is None it travels
    from ``route[0]`` to ``route[-1]``: a malicious packet one hop per tick,
    while a clean one stays at position 0 until it ends at its destination,
    its intermediate hops not simulated.  Once it ends, ``bad`` is True if
    it was detected and False if it was delivered, and it walks back toward
    ``route[0]`` as its own confirmation, one hop per tick."""

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


_packet_id = attrgetter("id")


class InFlight:
    """Everything currently traveling through the network: packets moving
    forward, and ended packets walking back as confirmations.

    Forward packets are kept where they next meet the detector.  Malicious
    packets, which meet it at every hop, are in ``malicious`` in id order.
    A clean packet meets it only at its destination, so its intermediate
    hops are not simulated: ``send`` files it in ``wheel``, one list per
    tick to come, under the tick it arrives.  A minimum-hop route has at
    most ``diameter`` hops, so ``diameter`` slots hold every arrival."""

    def __init__(self, diameter: int):
        self.malicious: list[Packet] = []
        self.wheel: deque[list[Packet]] = deque([] for _ in range(diameter))
        self.confirmations: list[Packet] = []

    @property
    def packets(self) -> list[Packet]:
        """The forward packets in id order, built on each read.  No run reads
        it; ``perfbench/tracer.py`` counts it."""
        return sorted([*self.malicious, *(pkt for due in self.wheel for pkt in due)],
                      key=_packet_id)

    def send(self, new_packets: list[Packet]) -> None:
        """Put the tick's new packets, in id order, on their way: a clean one
        on a route of h hops arrives h - 1 ticks after this one."""
        wheel, malicious = self.wheel, self.malicious
        for pkt in new_packets:
            if pkt.malicious:
                malicious.append(pkt)
            else:
                wheel[len(pkt.route) - 2].append(pkt)


def advance_packets(
    state: InFlight, detector: DetectorModel, rng: random.Random
) -> tuple[list[Packet], list[Packet]]:
    """Advance every malicious packet one hop, bring the clean packets due
    this tick to their destination, and run the detector once on each, in
    id order: so it draws at every hop of a malicious packet and at a clean
    one's destination, whose intermediate hops are not simulated.

    A due clean packet's position jumps from 0 to its last index, and its
    one draw is its outcome.  A malicious packet is delivered when it evades
    the draw at ``route[-1]``.  The due packets and the malicious ones are
    each in id order; when every due id comes first, as it does when the
    detector catches every attack at its first hop, the two lists are
    joined, otherwise sorted by id.  Detection ends the packet as a bad
    confirmation at the detecting node.  Delivery (including a malicious
    packet that evaded every check: the destination believes it is clean)
    ends it as a clean confirmation at the destination.  Ended packets are
    returned in end order, not inserted, so they start walking back only on
    the next tick; until then each is its own outcome record, through
    ``id``, ``event`` and ``route[position]``.  The one list is returned as
    both elements of the ``(spawned, outcomes)`` pair, kept only because
    ``perfbench/tracer.py`` unpacks it: once the benchmark stops wrapping
    library names, the list alone will do.
    """
    wheel, malicious = state.wheel, state.malicious
    due = wheel.popleft()
    wheel.append([])
    moving = due + malicious
    if due and malicious and due[-1].id > malicious[0].id:
        moving.sort(key=_packet_id)
    survivors: list[Packet] = []
    ended: list[Packet] = []
    keep = survivors.append
    for pkt in moving:
        route = pkt.route
        if pkt.malicious:
            position = pkt.position = pkt.position + 1
            if inspect_at_hop(pkt, detector, rng):
                pkt.bad = True
            elif route[position] == route[-1]:
                pkt.bad = False
            else:
                keep(pkt)
                continue
        else:
            pkt.position = len(route) - 1
            pkt.bad = inspect_at_hop(pkt, detector, rng)
        ended.append(pkt)
    state.malicious = survivors
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
        position = conf.position = conf.position - 1
        route = conf.route
        record((apply_bad if conf.bad else apply_good)(
            route[position + 1], route[position], params))
        if position:
            keep(conf)
    state.confirmations = survivors
    return values
