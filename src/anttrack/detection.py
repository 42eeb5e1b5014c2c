"""Probabilistic stand-in for the per-node intrusion detector.

Real packet inspection is out of scope; a detector is two probabilities:
the per-hop chance of recognizing a malicious packet, and the per-delivery
chance of wrongly flagging a clean one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .traffic import Packet


@dataclass(frozen=True)
class DetectorModel:
    detect_prob: float = 1.0
    false_positive_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.detect_prob <= 1.0:
            raise ValueError(f"detect_prob must be in [0, 1], got {self.detect_prob}")
        if not 0.0 <= self.false_positive_prob <= 1.0:
            raise ValueError(
                f"false_positive_prob must be in [0, 1], got {self.false_positive_prob}"
            )


def inspect_at_hop(
    packet: Packet, node: int, detector: DetectorModel, rng: random.Random
) -> bool:
    """True if the detector at a hop flags the packet arriving there.

    Malicious packets face one detection draw at every hop after the source.
    Clean packets are only judged at their destination, where a single
    false-positive draw may flag them; at intermediate hops they pass
    without a draw.
    """
    if packet.malicious:
        return rng.random() < detector.detect_prob
    return node == packet.route[-1] and rng.random() < detector.false_positive_prob
