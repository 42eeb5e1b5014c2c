import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from anttrack.ant import AntMode, AntState, ant_step
from anttrack.pheromone import PheromoneField, PheromoneParams, closed_form_value
from anttrack.topology import InvalidConfig, NetworkTopology

from conftest import connected_graphs, directions

GOOD, BAD = False, True

DEFAULTS = PheromoneParams()
PAIR = NetworkTopology.from_edges(2, [(0, 1)])


def bad(field, params=DEFAULTS):
    return field.apply_bad(0, 1, params)


def good(field, params=DEFAULTS):
    return field.apply_good(0, 1, params)


def level(field):
    return field.read_level(0, 1)


def fold(events, params):
    """A field on the topology 0-1 after the events crossed direction 0 -> 1."""
    field = PheromoneField(PAIR)
    for ev in events:
        if ev is BAD:
            bad(field, params)
        else:
            good(field, params)
    return field


def fig1_events():
    return [BAD if i in (3, 10, 15) else GOOD for i in range(1, 101)]


def test_params_defaults():
    assert DEFAULTS.increase == 20.0
    assert DEFAULTS.decay == 0.95
    assert DEFAULTS.threshold == 10.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"increase": 0.0},
        {"increase": -1.0},
        {"decay": 0.0},
        {"decay": 1.0},
        {"decay": 1.5},
        {"threshold": 0.0},
        {"increase": math.inf},
        {"increase": math.nan},
        {"decay": math.nan},
        {"threshold": math.inf},
        {"threshold": math.nan},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(InvalidConfig):
        PheromoneParams(**kwargs)


def test_closed_form_empty_is_zero():
    assert closed_form_value([], DEFAULTS) == 0.0


def test_closed_form_single_bad_is_increase():
    assert closed_form_value([BAD], DEFAULTS) == 20.0


def test_closed_form_fig1_terminal():
    # 2 goods, bad, 6 goods, bad, 4 goods, bad, 85 goods
    value = closed_form_value(fig1_events(), DEFAULTS)
    assert math.isclose(value, 0.6168, rel_tol=2e-4)
    assert math.isclose(value, 0.6167902989543368, rel_tol=1e-12)


@pytest.mark.parametrize("event", [1, "B", None])
def test_closed_form_rejects_events_that_are_not_bools(event):
    # 1 == True, so a truthiness or equality test would count it as bad
    with pytest.raises(TypeError):
        closed_form_value([GOOD, event, BAD], DEFAULTS)


def test_apply_good_on_zero_stays_zero():
    assert level(fold([GOOD] * 5, DEFAULTS)) == 0.0


def test_apply_good_decays():
    assert math.isclose(level(fold([BAD, GOOD], DEFAULTS)), 19.0, rel_tol=1e-12)


def test_four_goods_match_closed_form():
    prefix = fig1_events()[:10]  # ends at the second bad: value 34.7018378125
    field = fold(prefix, DEFAULTS)
    assert math.isclose(level(field), 34.7018378125, rel_tol=1e-12)
    for _ in range(4):
        good(field)
    oracle = closed_form_value(prefix + [GOOD] * 4, DEFAULTS)
    assert math.isclose(level(field), oracle, rel_tol=1e-9)
    assert math.isclose(level(field), 34.7018378125 * 0.95**4, rel_tol=1e-9)


def test_apply_bad_adds_increase_exactly():
    assert bad(PheromoneField(PAIR)) == 20.0
    field = fold(fig1_events()[:9], DEFAULTS)  # 20 * 0.95**6 before the second bad
    assert math.isclose(level(field), 14.7018378125, rel_tol=1e-12)
    assert math.isclose(bad(field), 34.7018378125, rel_tol=1e-12)


def test_very_large_increase_saturates_to_inf():
    # any finite inc is accepted; one near the float limit overflows on the
    # second boost, and the level then stays at inf, which the log prints as
    # "inf"
    params = PheromoneParams(increase=1e308)
    field = PheromoneField(PAIR)
    assert bad(field, params) == 1e308
    assert bad(field, params) == math.inf
    assert good(field, params) == math.inf
    assert level(field) == math.inf
    assert f"{level(field):.9g}" == "inf"


def test_fig1_checkpoint_values():
    events = fig1_events()
    expected = {
        3: 20.0,
        10: 34.7018378125,
        15: 48.26486378476757,
        100: 0.6167902989543368,
    }
    field = PheromoneField(PAIR)
    for i, ev in enumerate(events, 1):
        value = bad(field) if ev is BAD else good(field)
        if i in expected:
            assert math.isclose(value, expected[i], rel_tol=1e-9)
            assert math.isclose(value, closed_form_value(events[:i], DEFAULTS), rel_tol=1e-9)


def test_incremental_equals_closed_form_random():
    rng = random.Random(2024)
    for _ in range(200):
        params = PheromoneParams(
            increase=rng.uniform(1, 100), decay=rng.uniform(0.5, 0.99)
        )
        events = [BAD if rng.random() < rng.random() else GOOD for _ in range(rng.randrange(500))]
        got = level(fold(events, params))
        want = closed_form_value(events, params)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-300)


def test_history_mode_matches_literal_sum():
    # the running value equals the sum written out from the event history:
    # increase * decay**(goods after that bad) over every bad event
    rng = random.Random(7)
    events = [BAD if rng.random() < 0.3 else GOOD for _ in range(300)]
    goods_since = [events[i + 1:].count(GOOD) for i, ev in enumerate(events) if ev is BAD]
    literal = sum(DEFAULTS.increase * DEFAULTS.decay**g for g in goods_since)
    assert math.isclose(level(fold(events, DEFAULTS)), literal, rel_tol=1e-9)


def test_monotonicity():
    rng = random.Random(11)
    field = fold([BAD if rng.random() < 0.4 else GOOD for _ in range(100)], DEFAULTS)
    before = level(field)
    assert bad(field) == pytest.approx(before + 20.0)
    assert 0 < good(field) < before + 20.0


def test_value_never_negative():
    rng = random.Random(5)
    field = PheromoneField(PAIR)
    for _ in range(2000):
        value = bad(field) if rng.random() < 0.5 else good(field)
        assert value >= 0.0


def test_periodic_traffic_fixed_point():
    # one bad then k-1 goods per cycle: post-bad values approach the fixed
    # point P solving P = P*decay**(k-1) + increase
    for k in (2, 5, 10):
        goods = k - 1
        fixed_point = 20.0 / (1.0 - 0.95**goods)
        field = PheromoneField(PAIR)
        for cycle in range(1000):
            post_bad = bad(field)
            if cycle == 199:
                post_bad_200 = post_bad
            for _ in range(goods):
                good(field)
        assert math.isclose(post_bad, fixed_point, rel_tol=1e-9)
        assert math.isclose(level(field), fixed_point - 20.0, rel_tol=1e-9)
        if k == 5:
            # 200 cycles already suffice at this decay rate
            assert math.isclose(post_bad_200, fixed_point, rel_tol=1e-9)
            assert math.isclose(fixed_point, 107.8203443512247, rel_tol=1e-12)
            assert math.isclose(fixed_point - 20.0, 87.8203443512247, rel_tol=1e-12)


def test_live_state_within_storage_bound():
    # after any number of events a direction's live state is one float
    field = fold([BAD, GOOD] * 500, DEFAULTS)
    assert field.values.itemsize == 8
    assert type(level(field)) is float
    # one float per direction, and the reverse direction 1 -> 0 untouched
    assert field.values.tolist() == [level(field), 0.0]


def test_field_directional_independence(path3):
    field = PheromoneField(path3)
    field.apply_bad(1, 0, DEFAULTS)
    assert field.read_level(1, 0) == 20.0
    assert field.read_level(0, 1) == 0.0


def test_field_untouched_reads_zero(path3):
    field = PheromoneField(path3)
    assert field.read_level(0, 1) == 0.0
    # reading must not materialize state
    assert all(field.read_level(*key) == 0.0 for key in directions(path3))


def test_field_bad_then_good(path3):
    field = PheromoneField(path3)
    field.apply_bad(1, 0, DEFAULTS)
    field.apply_good(1, 0, DEFAULTS)
    assert math.isclose(field.read_level(1, 0), 19.0, rel_tol=1e-12)


def test_field_rejects_non_connections(path3):
    # (0, 2) and (2, 0) join nodes of the path that are not neighbours;
    # node 3 is outside the topology
    field = PheromoneField(path3)
    with pytest.raises(KeyError, match=re.escape("(0, 2)")):
        field.read_level(0, 2)
    with pytest.raises(KeyError, match=re.escape("(2, 0)")):
        field.apply_bad(2, 0, DEFAULTS)
    with pytest.raises(KeyError, match=re.escape("(0, 2)")):
        field.apply_good(0, 2, DEFAULTS)
    with pytest.raises(KeyError, match=re.escape("(2, 3)")):
        field.read_level(2, 3)
    with pytest.raises(KeyError, match=re.escape("(3, 2)")):
        field.apply_bad(3, 2, DEFAULTS)
    with pytest.raises(KeyError, match=re.escape("(2, 3)")):
        field.apply_good(2, 3, DEFAULTS)
    assert all(field.read_level(*key) == 0.0 for key in directions(path3))


def test_field_rejects_nodes_outside_the_topology(path3):
    # pairs that per-node rows kept in a list would alias: row -1 is node
    # 2's, so (-1, 1) would read 2 -> 1; row -3 is node 0's, so (-3, 1) would
    # write 0 -> 1; row -2 is node 1's, so (-2, 0) would write 1 -> 0
    field = PheromoneField(path3)
    field.apply_bad(2, 1, DEFAULTS)
    field.apply_bad(0, 1, DEFAULTS)
    before = [field.read_level(*key) for key in directions(path3)]
    with pytest.raises(KeyError, match=re.escape("(-1, 1)")):
        field.read_level(-1, 1)
    with pytest.raises(KeyError, match=re.escape("(-3, 1)")):
        field.apply_good(-3, 1, DEFAULTS)
    with pytest.raises(KeyError, match=re.escape("(-2, 0)")):
        field.apply_bad(-2, 0, DEFAULTS)
    with pytest.raises(KeyError, match=re.escape("(1, -1)")):
        field.read_level(1, -1)
    with pytest.raises(KeyError, match=re.escape("(5, 1)")):
        field.apply_bad(5, 1, DEFAULTS)
    assert [field.read_level(*key) for key in directions(path3)] == before


def test_threshold_is_strict():
    # an agent does not take a direction exactly at the threshold as a
    # trail, and does take one just above it
    topo = NetworkTopology.from_edges(2, [(0, 1)])
    params10 = PheromoneParams(increase=10.0, decay=0.95, threshold=10.0)
    field = PheromoneField(topo)
    field.apply_bad(0, 1, params10)
    assert field.read_level(0, 1) == 10.0
    ant = AntState(0, location=0)
    ant_step(ant, topo.out_pairs, field.values, params10.threshold, random.Random(0).getrandbits)
    assert ant.mode is AntMode.WANDERING
    field.apply_bad(0, 1, PheromoneParams(increase=math.ulp(10.0)))
    assert field.read_level(0, 1) == math.nextafter(10.0, math.inf)
    ant = AntState(1, location=0)
    ant_step(ant, topo.out_pairs, field.values, params10.threshold, random.Random(0).getrandbits)
    assert ant.mode is AntMode.TRACKING


@st.composite
def field_scripts(draw):
    """A small connected graph, update parameters, and a sequence of
    good/bad writes and reads over its directed connections."""
    topo = draw(connected_graphs())
    params = PheromoneParams(
        increase=draw(st.floats(min_value=0.5, max_value=100.0)),
        decay=draw(st.floats(min_value=0.05, max_value=0.99)),
    )
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["good", "bad", "read"]), st.sampled_from(directions(topo))),
        max_size=60,
    ))
    return topo, params, ops


@given(field_scripts())
def test_field_matches_dict_oracle(script):
    topo, params, ops = script
    field = PheromoneField(topo)
    # held as engine.run holds it for every agent step of a run: each write
    # must land in this array, and ``values`` must never be rebound
    arr = field.values
    levels: dict[tuple[int, int], float] = {}
    for op, (u, v) in ops:
        if op == "read":
            assert field.read_level(u, v) == levels.get((u, v), 0.0)
            continue
        if op == "bad":
            levels[u, v] = levels.get((u, v), 0.0) + params.increase
            assert field.apply_bad(u, v, params) == levels[u, v]
        else:
            levels[u, v] = levels.get((u, v), 0.0) * params.decay
            assert field.apply_good(u, v, params) == levels[u, v]
        assert field.values is arr
        assert arr[topo.out_ids[u][v]] == levels[u, v]
    for key in directions(topo):
        assert field.read_level(*key) == levels.get(key, 0.0)
