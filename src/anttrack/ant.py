"""The trail-following agent that identifies infected nodes.

The agent wanders the network at random until an outgoing connection reads
above the pheromone threshold, then follows the strongest qualifying
connection hop by hop, ties going to the smallest neighbor id.  When a
followed trail dead-ends (no qualifying outgoing connection), the current
node is declared infected and the agent resumes wandering.  Agents only
ever read pheromone state: ``ant_step`` gets the field's array and the
topology's rows as plain tables, so this module imports neither.

In every mode the reverse of the connection just traversed is ignored when
scanning for trails: a trail deposited behind the agent must not mask a
trail end, the agent must not ping-pong on a two-node trail, and an agent
leaving a just-declared node must not be recaptured by the trail it walked
down, or it would orbit one infected node forever while others go
unvisited.  The uniform random move of a wandering agent that sees no
trail does allow stepping back.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum


class AntMode(Enum):
    WANDERING = "wandering"
    TRACKING = "tracking"


# ant_step, run once per agent per tick, reads the modes as module names: an
# ``AntMode.X`` lookup goes through the enum metaclass, about ten times a global's
WANDERING, TRACKING = AntMode.WANDERING, AntMode.TRACKING


@dataclass(slots=True)
class AntState:
    ant_id: int
    location: int
    mode: AntMode = WANDERING
    came_from: int | None = None


def ant_step(
    ant: AntState,
    out_pairs: Sequence[tuple[tuple[int, int], ...]],
    levels: Sequence[float],
    threshold: float,
    getrandbits: Callable[[int], int],
) -> int | None:
    """Advance the agent one decision step and mutate its state; return the
    node declared infected, or None if the agent moved.

    The engine fetches the arguments once per run: ``out_pairs``, the
    topology's rows of (neighbor, edge id) pairs in ascending neighbor id;
    ``levels``, the field's ``values`` by edge id; the trail ``threshold``;
    and the ``getrandbits`` of the agent's own generator.  One pass over
    ``out_pairs[here]`` keeps the first neighbor strictly above the best
    level so far, starting from the threshold, so ties go to the smallest
    id.  With a trail the agent tracks and follows it.  Without one, a
    tracking agent declares its current node infected and resumes
    wandering, staying put for this step; a wandering agent moves to a
    uniform random neighbor.  A node without neighbors, only possible in a
    one-node topology, raises ``ValueError``.
    """
    here = ant.location
    banned = ant.came_from
    row = out_pairs[here]
    nxt = None
    best = threshold
    for nb, e in row:
        if nb != banned:
            level = levels[e]
            if level > best:
                nxt, best = nb, level
    if nxt is not None:
        ant.mode = TRACKING
    elif ant.mode is TRACKING:
        ant.mode = WANDERING
        ant.came_from = None
        return here
    else:
        # Random.randrange(n) without its calls: the same words, so the
        # same neighbor and the same generator state
        n = len(row)
        if not n:
            raise ValueError(f"node {here} has no neighbors to move to")
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        nxt = row[r][0]
    ant.came_from = here
    ant.location = nxt
    return None
