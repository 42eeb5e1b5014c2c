"""The trail-following agent that identifies infected nodes.

The agent wanders the network at random until an outgoing connection reads
above the pheromone threshold, then follows the strongest qualifying
connection hop by hop.  When a followed trail dead-ends (no qualifying
outgoing connection), the current node is declared infected and the agent
resumes wandering.  Agents only ever read pheromone state.

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


def _qualifying_edges(
    ant: AntState,
    topology: NetworkTopology,
    pheromones: PheromoneField,
    params: PheromoneParams,
) -> list[tuple[int, float]]:
    """(neighbor, level) pairs above threshold, ascending by neighbor id."""
    banned = ant.came_from
    out = []
    for nb in topology.neighbors(ant.location):
        if nb == banned:
            continue
        level = pheromones.read_level(ant.location, nb)
        if level > params.threshold:
            out.append((nb, level))
    return out


def _pick_edge(
    hot: list[tuple[int, float]], rng: random.Random, choice: str
) -> int:
    if choice == "proportional":
        total = sum(level for _, level in hot)
        x = rng.random() * total
        acc = 0.0
        for nb, level in hot:
            acc += level
            if x < acc:
                return nb
        return hot[-1][0]
    # greedy: maximum level, ties broken by smallest neighbor id; the list
    # is ascending by id, so a strict > keeps the first of a tie
    best_nb, best_level = hot[0]
    for nb, level in hot[1:]:
        if level > best_level:
            best_nb, best_level = nb, level
    return best_nb


def ant_step(
    ant: AntState,
    topology: NetworkTopology,
    pheromones: PheromoneField,
    params: PheromoneParams,
    rng: random.Random,
    choice: str = "greedy",
) -> int | None:
    """Advance the agent one decision step and mutate its state; return the
    node declared infected, or None if the agent moved.

    Wandering with no qualifying connection: move to a uniform random
    neighbor.  Wandering with qualifying connections: switch to tracking and
    follow one.  Tracking with qualifying connections: keep following.
    Tracking with none: declare the current node infected and resume
    wandering, staying put for this step.
    """
    tracking = ant.mode is AntMode.TRACKING
    hot = _qualifying_edges(ant, topology, pheromones, params)
    if not hot:
        if tracking:
            ant.mode = AntMode.WANDERING
            ant.came_from = None
            return ant.location
        neighbors = topology.neighbors(ant.location)
        nxt = neighbors[rng.randrange(len(neighbors))]
    else:
        nxt = _pick_edge(hot, rng, choice)
        ant.mode = AntMode.TRACKING
    ant.came_from = ant.location
    ant.location = nxt
    return None
