"""Per-connection pheromone values and their update rules.

Each directed connection carries a scalar value built from two kinds of
confirmation events: a detected-attack confirmation adds a fixed boost, a
clean confirmation multiplies the whole value by a decay factor.  The value
is algebraically the sum, over past bad events, of boost * decay^(number of
clean events seen since that bad event).  The live representation is the
O(1) running value in a ``PheromoneField``, one float per direction at its
``out_ids`` id, and the field holds the only implementation of the update
rule.  The literal sum is ``closed_form_value``, the independent check.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from .topology import InvalidConfig


@dataclass(frozen=True)
class PheromoneParams:
    """Update parameters: boost per bad event, decay per good event, and the
    level above which agents treat a connection as part of a track."""

    increase: float = 20.0
    decay: float = 0.95
    threshold: float = 10.0

    def __post_init__(self):
        if not (math.isfinite(self.increase) and self.increase > 0):
            raise InvalidConfig(f"increase (inc) must be finite and > 0, got {self.increase}")
        if not 0 < self.decay < 1:
            raise InvalidConfig(f"decay (dec) must be in (0, 1), got {self.decay}")
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise InvalidConfig(f"threshold must be finite and > 0, got {self.threshold}")


def closed_form_value(events, params: PheromoneParams) -> float:
    """Evaluate the pheromone sum literally from an ordered event list, each
    event a bool: True for a bad (detected-attack) confirmation, False for a
    clean one.

    For every bad event, count the good events that follow it and sum
    increase * decay^count.  Serves as the independent oracle for the
    incremental updates, so any element other than exactly True or False
    raises ``TypeError`` instead of being miscounted.
    """
    good_total = 0
    goods_at_bad = []
    for bad in events:
        if bad is True:
            goods_at_bad.append(good_total)
        elif bad is False:
            good_total += 1
        else:
            raise TypeError(f"event must be True (bad) or False (good), got {bad!r}")
    return sum(params.increase * params.decay ** (good_total - g) for g in goods_at_bad)


class PheromoneField:
    """Directed pheromone values for every connection of a topology.

    One float per directed connection in the public ``array('d')``
    ``values``, at its id ``topology.out_ids[u][v]``; agents read it by edge
    id.  Only ``apply_good`` and ``apply_bad`` write it, in place: ``values``
    is never rebound, so a reader holding the array sees every write.  Both
    directions of a connection are independent.  Reads never write, so read
    paths cannot perturb the field.  A pair that is not a connection, or
    names a node outside the topology, raises ``KeyError`` naming the pair.
    """

    def __init__(self, topology):
        self._rows = topology.out_ids
        self.values = array("d", bytes(8 * sum(map(len, topology.adjacency))))

    def apply_good(self, from_node: int, to_node: int, params: PheromoneParams) -> float:
        """A clean confirmation crossed the direction: decay its value."""
        try:
            i = self._rows[from_node][to_node]
        except KeyError:
            raise KeyError((from_node, to_node)) from None
        values = self.values
        value = values[i] = values[i] * params.decay
        return value

    def apply_bad(self, from_node: int, to_node: int, params: PheromoneParams) -> float:
        """A detected-attack confirmation crossed the direction: boost it."""
        try:
            i = self._rows[from_node][to_node]
        except KeyError:
            raise KeyError((from_node, to_node)) from None
        values = self.values
        value = values[i] = values[i] + params.increase
        return value

    def read_level(self, from_node: int, to_node: int) -> float:
        """Current value for a direction; 0.0 if never touched."""
        try:
            return self.values[self._rows[from_node][to_node]]
        except KeyError:
            raise KeyError((from_node, to_node)) from None
