"""A packet's life: its record, the detector that judges it, and its
movement out and back.

A packet travels forward from ``route[0]`` and meets the detector only
where it draws: at every hop of a malicious packet, and at a clean packet's
destination.  So forward packets wait in a calendar, ``InFlight`` (a timing
wheel: Varghese & Lauck, "Hashed and hierarchical timing wheels", SOSP
1987), and a clean packet's intermediate hops, which change nothing, are
not simulated.  When a packet is detected or delivered it ends, and the
same record is both its outcome and its confirmation, which walks back
toward its source along its own route, one hop per tick, as PAPER.md says.
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
from .topology import InvalidConfig, NetworkTopology, Route


@dataclass(slots=True)
class Packet:
    """A packet at ``route[position]``.  While ``bad`` is None it travels
    from ``route[0]`` to ``route[-1]``, and ``route[position]`` is where it
    last met the detector, ``route[0]`` before it first does.  Once it ends,
    ``bad`` is True if it was detected and False if it was delivered,
    ``event`` names that outcome, and it walks back toward ``route[0]`` as
    its own confirmation."""

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

    ``wheel`` is the calendar of forward packets, one list per tick to come,
    this tick's first: a packet waits under the tick it next meets the
    detector.  ``send`` files a malicious packet under this tick, and a
    clean one on a route of h hops under its arrival, h - 1 ticks on;
    ``advance_packets`` re-files a malicious packet that survives under the
    next tick.  A minimum-hop route has at most diameter hops, and the
    topology has diameter + 1 reach levels, so diameter lists hold every
    arrival."""

    def __init__(self, topology: NetworkTopology):
        diameter = len(topology.levels) - 1
        self.wheel: deque[list[Packet]] = deque([] for _ in range(diameter))
        self.refiled = False
        self.confirmations: list[Packet] = []

    @property
    def packets(self) -> list[Packet]:
        """The forward packets, in no set order, built on each read.  No run
        reads it; ``perfbench/tracer.py`` counts it."""
        return [pkt for due in self.wheel for pkt in due]

    def send(self, new_packets: list[Packet]) -> None:
        """File the tick's new packets, in id order, in the calendar."""
        wheel = self.wheel
        for pkt in new_packets:
            wheel[0 if pkt.malicious else len(pkt.route) - 2].append(pkt)


def advance_packets(
    state: InFlight, detector: DetectorModel, rng: random.Random
) -> tuple[list[Packet], list[Packet]]:
    """Run the detector once on each packet due this tick, in id order, and
    end or re-file it.

    A due slot is filed in id order, tick by tick, unless a malicious packet
    was re-filed into it last tick (``state.refiled``); only then is it
    sorted.  A malicious packet moves one hop and draws: it is detected,
    delivered when it evades the draw at ``route[-1]`` (the destination
    believes it is clean), or re-filed.  A clean packet's position jumps to
    its last index, and its one draw is its outcome.  Detection ends the
    packet as a bad confirmation at the detecting node, delivery as a clean
    one at the destination.  Ended packets join ``state.confirmations`` in
    end order, after those that moved this tick, so they start walking back
    only on the next tick; until then each is its own outcome record,
    through ``id``, ``event`` and ``route[position]``.  They are returned as
    both elements of the ``(spawned, outcomes)`` pair, kept only because
    ``perfbench/tracer.py`` unpacks it: once the benchmark stops wrapping
    library names, the list alone will do.
    """
    wheel = state.wheel
    due = wheel.popleft()
    wheel.append([])
    if state.refiled:
        due.sort(key=_packet_id)
    refile = wheel[0].append
    ended: list[Packet] = []
    for pkt in due:
        route = pkt.route
        if pkt.malicious:
            position = pkt.position = pkt.position + 1
            if inspect_at_hop(pkt, detector, rng):
                pkt.bad = True
            elif route[position] == route[-1]:
                pkt.bad = False
            else:
                refile(pkt)
                continue
        else:
            pkt.position = len(route) - 1
            pkt.bad = inspect_at_hop(pkt, detector, rng)
        ended.append(pkt)
    state.refiled = len(ended) < len(due)
    state.confirmations.extend(ended)
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
