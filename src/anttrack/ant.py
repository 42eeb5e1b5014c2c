"""The trail-following agent that identifies infected nodes.

The agent wanders the network at random until an outgoing connection reads
above the pheromone threshold, then follows the strongest qualifying
connection hop by hop, ties going to the smallest neighbor id.  When a
followed trail dead-ends (no qualifying outgoing connection), the current
node is declared infected and the agent resumes wandering.  Agents only
ever read pheromone state.

In every mode the reverse of the connection just traversed is ignored when
scanning for trails: a trail deposited behind the agent must not mask a
trail end, the agent must not ping-pong on a two-node trail, and an agent
leaving a just-declared node must not be recaptured by the trail it walked
down, or it would orbit one infected node forever while others go
unvisited.  The uniform random move of a wandering agent that sees no
trail does allow stepping back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .pheromone import PheromoneField, PheromoneParams
from .topology import NetworkTopology


class AntMode(Enum):
    WANDERING = "wandering"
    TRACKING = "tracking"


@dataclass
class AntState:
    ant_id: int
    location: int
    mode: AntMode = AntMode.WANDERING
    came_from: int | None = None


def ant_step(
    ant: AntState,
    topology: NetworkTopology,
    pheromones: PheromoneField,
    params: PheromoneParams,
    rng: random.Random,
) -> int | None:
    """Advance the agent one decision step and mutate its state; return the
    node declared infected, or None if the agent moved.

    One pass over the neighbors in ascending id order keeps the first
    strictly above the best level so far, starting from the threshold, so
    ties go to the smallest id.  With a trail the agent tracks and follows
    it.  Without one, a tracking agent declares its current node infected
    and resumes wandering, staying put for this step; a wandering agent
    moves to a uniform random neighbor.
    """
    here = ant.location
    banned = ant.came_from
    neighbors = topology.adjacency[here]
    nxt = None
    best = params.threshold
    for nb in neighbors:
        if nb != banned:
            level = pheromones.read_level(here, nb)
            if level > best:
                nxt, best = nb, level
    if nxt is not None:
        ant.mode = AntMode.TRACKING
    elif ant.mode is AntMode.TRACKING:
        ant.mode = AntMode.WANDERING
        ant.came_from = None
        return here
    else:
        nxt = neighbors[rng.randrange(len(neighbors))]
    ant.came_from = here
    ant.location = nxt
    return None
