import math
import random
import sys
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from anttrack.ant import AntMode, AntState, ant_step
from anttrack.pheromone import PheromoneField, PheromoneParams
from anttrack.topology import NetworkTopology

from conftest import directions, grid_topology, path_topology, star_topology

PARAMS = PheromoneParams()
THRESHOLD = PARAMS.threshold


def cycle4():
    return NetworkTopology.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_wandering_on_clean_graph_moves_randomly():
    topo = cycle4()
    field = PheromoneField(topo)
    pairs, levels = topo.out_pairs, field.values
    counts = Counter()
    for seed in range(200):
        ant = AntState(0, location=0)
        assert ant_step(ant, pairs, levels, THRESHOLD, random.Random(seed).getrandbits) is None
        assert ant.mode is AntMode.WANDERING
        assert ant.location in topo.adjacency[0]
        counts[ant.location] += 1
    assert set(counts) == {1, 3}  # both neighbors get picked


def test_track_following_to_declaration(path3):
    field = PheromoneField(path3)
    pairs, levels = path3.out_pairs, field.values
    field.apply_bad(1, 0, PARAMS)
    field.apply_bad(2, 1, PARAMS)
    ant = AntState(0, location=2)
    rng = random.Random(0)

    assert ant_step(ant, pairs, levels, THRESHOLD, rng.getrandbits) is None
    assert ant.location == 1
    assert ant.mode is AntMode.TRACKING

    assert ant_step(ant, pairs, levels, THRESHOLD, rng.getrandbits) is None
    assert ant.location == 0
    assert ant.mode is AntMode.TRACKING

    assert ant_step(ant, pairs, levels, THRESHOLD, rng.getrandbits) == 0
    assert ant.location == 0
    assert ant.mode is AntMode.WANDERING
    assert ant.came_from is None


def test_greedy_follows_strongest_edge(star10):
    field = PheromoneField(star10)
    pairs, levels = star10.out_pairs, field.values
    field.apply_bad(0, 4, PARAMS)  # 20
    field.apply_bad(0, 7, PARAMS)
    for _ in range(5):
        field.apply_good(0, 7, PARAMS)  # 20 * 0.95**5 ~ 15.48, also above threshold
    ant = AntState(0, location=0)
    assert ant_step(ant, pairs, levels, THRESHOLD, random.Random(0).getrandbits) is None
    assert ant.location == 4


def test_tie_breaks_to_smallest_neighbor(star10):
    field = PheromoneField(star10)
    pairs, levels = star10.out_pairs, field.values
    field.apply_bad(0, 6, PARAMS)
    field.apply_bad(0, 2, PARAMS)
    ant = AntState(0, location=0)
    assert ant_step(ant, pairs, levels, THRESHOLD, random.Random(0).getrandbits) is None
    assert ant.location == 2


def test_tracking_ignores_reverse_of_arrival_edge(path3):
    field = PheromoneField(path3)
    pairs, levels = path3.out_pairs, field.values
    field.apply_bad(1, 0, PARAMS)
    field.apply_bad(0, 1, PARAMS)  # trail in both directions between 0 and 1
    ant = AntState(0, location=1, mode=AntMode.TRACKING, came_from=2)
    assert ant_step(ant, pairs, levels, THRESHOLD, random.Random(0).getrandbits) is None
    assert ant.location == 0
    # at 0 the only hot edge points back where the ant came from: trail ends
    assert ant_step(ant, pairs, levels, THRESHOLD, random.Random(0).getrandbits) == 0
    # a tracking ant whose only hot edge is its own arrival edge also stops
    ant = AntState(1, location=1, mode=AntMode.TRACKING, came_from=0)
    assert ant_step(ant, pairs, levels, THRESHOLD, random.Random(0).getrandbits) == 1


def test_arrival_edge_masks_trail_in_any_mode():
    topo = path_topology(2)
    field = PheromoneField(topo)
    pairs, levels = topo.out_pairs, field.values
    field.apply_bad(1, 0, PARAMS)
    # a freshly placed ant has no arrival edge and sees the trail
    ant = AntState(0, location=1)
    assert ant_step(ant, pairs, levels, THRESHOLD, random.Random(0).getrandbits) is None
    assert ant.location == 0
    assert ant.mode is AntMode.TRACKING
    # an ant that just came from node 0 does not, and keeps wandering
    ant = AntState(1, location=1, came_from=0)
    assert ant_step(ant, pairs, levels, THRESHOLD, random.Random(0).getrandbits) is None
    assert ant.location == 0
    assert ant.mode is AntMode.WANDERING


def test_declared_hotspot_does_not_recapture_through_same_edge(path3):
    # walk the trail down, declare, leave: the walked edge must not pull the
    # ant straight back into a declare loop
    field = PheromoneField(path3)
    pairs, levels = path3.out_pairs, field.values
    field.apply_bad(1, 0, PARAMS)
    ant = AntState(0, location=1)
    rng = random.Random(0)
    assert ant_step(ant, pairs, levels, THRESHOLD, rng.getrandbits) is None
    assert ant_step(ant, pairs, levels, THRESHOLD, rng.getrandbits) == 0
    assert ant_step(ant, pairs, levels, THRESHOLD, rng.getrandbits) is None
    assert ant.location == 1
    assert ant_step(ant, pairs, levels, THRESHOLD, rng.getrandbits) is None
    assert ant.mode is AntMode.WANDERING


def test_no_backtrack_while_tracking_over_long_runs(grid4x4):
    rng = random.Random(99)
    field = PheromoneField(grid4x4)
    pairs, levels = grid4x4.out_pairs, field.values
    for a, b in directions(grid4x4):
        if rng.random() < 0.5:
            field.apply_bad(a, b, PARAMS)
    ant = AntState(0, location=0)
    prev_move = None
    for tick in range(500):
        was_tracking = ant.mode is AntMode.TRACKING
        loc = ant.location
        if ant_step(ant, pairs, levels, THRESHOLD, rng.getrandbits) is None:
            if was_tracking and prev_move is not None:
                assert (loc, ant.location) != (prev_move[1], prev_move[0]), (
                    f"tracking backtrack at tick {tick}"
                )
            prev_move = (loc, ant.location)
        else:
            prev_move = None


def test_ants_never_modify_pheromones(grid4x4):
    field = PheromoneField(grid4x4)
    pairs, levels = grid4x4.out_pairs, field.values
    field.apply_bad(5, 6, PARAMS)
    field.apply_bad(9, 5, PARAMS)
    before = {key: field.read_level(*key) for key in directions(grid4x4)}
    ant = AntState(0, location=2)
    rng = random.Random(4)
    for _ in range(200):
        ant_step(ant, pairs, levels, THRESHOLD, rng.getrandbits)
    assert {key: field.read_level(*key) for key in directions(grid4x4)} == before


def test_trajectory_deterministic(grid4x4):
    field = PheromoneField(grid4x4)
    pairs, levels = grid4x4.out_pairs, field.values
    field.apply_bad(10, 9, PARAMS)

    def trajectory(seed):
        ant = AntState(0, location=0)
        rng = random.Random(seed)
        return [
            (ant_step(ant, pairs, levels, THRESHOLD, rng.getrandbits), ant.location, ant.mode)
            for _ in range(100)
        ]

    assert trajectory(5) == trajectory(5)
    assert trajectory(5) != trajectory(6)


def set_level(field, u, v, level):
    """Bring a fresh direction to ``level`` (0, a finite positive value, or
    inf) through boosts alone."""
    if math.isinf(level):
        for _ in range(2):
            field.apply_bad(u, v, PheromoneParams(increase=sys.float_info.max))
    elif level:
        field.apply_bad(u, v, PheromoneParams(increase=level))


SCENE_TOPOLOGIES = [star_topology(7), grid_topology(3, 3)]


@st.composite
def trail_scenes(draw):
    """An agent on a star or a grid whose outgoing levels are drawn from the
    values where the rule's comparisons turn: 0, the threshold and one ulp
    either side of it, a value several directions may share, and inf."""
    topo = draw(st.sampled_from(SCENE_TOPOLOGIES))
    threshold = draw(st.sampled_from([5e-324, 1.0, 10.0, 1e300]))
    tie = draw(st.floats(threshold, sys.float_info.max))
    values = [
        0.0, threshold, math.nextafter(threshold, 0.0), math.nextafter(threshold, math.inf),
        tie, math.inf,
    ]
    here = draw(st.integers(0, topo.node_count - 1))
    # the oracle's neighbor list comes from the id rows, not the adjacency
    neighbors = sorted(topo.out_ids[here])
    return {
        "topo": topo,
        "params": PheromoneParams(threshold=threshold),
        "here": here,
        "neighbors": neighbors,
        "levels": {nb: draw(st.sampled_from(values)) for nb in neighbors},
        "came_from": draw(st.one_of(st.none(), st.sampled_from(neighbors))),
        "tracking": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32)),
    }


@settings(max_examples=300, deadline=None)
@given(trail_scenes())
def test_step_matches_the_literal_rule(scene):
    topo, here, levels = scene["topo"], scene["here"], scene["levels"]
    field = PheromoneField(topo)
    for nb, level in levels.items():
        set_level(field, here, nb, level)
    mode = AntMode.TRACKING if scene["tracking"] else AntMode.WANDERING
    ant = AntState(0, location=here, mode=mode, came_from=scene["came_from"])
    rng = random.Random(scene["seed"])
    oracle_rng = random.Random(scene["seed"])

    declared = ant_step(ant, topo.out_pairs, field.values, scene["params"].threshold,
                        rng.getrandbits)

    hot = {
        nb: level for nb, level in levels.items()
        if nb != scene["came_from"] and level > scene["params"].threshold
    }
    if hot:
        top = max(hot.values())
        want = (None, min(nb for nb, level in hot.items() if level == top), AntMode.TRACKING, here)
    elif scene["tracking"]:
        want = (here, here, AntMode.WANDERING, None)
    else:
        neighbors = scene["neighbors"]
        want = (None, neighbors[oracle_rng.randrange(len(neighbors))], AntMode.WANDERING, here)
    assert (declared, ant.location, ant.mode, ant.came_from) == want
    # following or ending a trail draws nothing; a random move one randrange
    assert rng.getstate() == oracle_rng.getstate()
