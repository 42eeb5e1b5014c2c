from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from anttrack.engine import run
from anttrack.topology import shortest_route
from anttrack.transport import Packet

from conftest import (
    expected_draws,
    expected_writes,
    grid_topology,
    packet_config,
    path_topology,
    run_records,
)


def test_good_packet_walkthrough(path3):
    # packet 0 is the only one of tick 0, and the first to end at tick 1
    ticks, _ = run_records(packet_config(path3, good=1, seed=3))
    assert ticks[0].spawns == [(0, 0, 2, False)]
    assert ticks[0].ends == [] and ticks[1].ends[0] == (0, "delivered", 2)
    assert ticks[0].writes == ticks[1].writes == []
    assert ticks[2].writes[0] == (2, 1, "good", 0.0)
    assert ticks[3].writes[0] == (1, 0, "good", 0.0)


def test_packet_records_are_slotted_and_outcomes_compare_by_value(path3):
    # A packet is built once per packet on the tick path and is its own
    # outcome record: no second record is built when it ends (BENCH_39.json).
    # It is slotted and not frozen, since a frozen dataclass made a record
    # about four times dearer to build (BENCH_26.json): bring frozen=True
    # back only with a measurement.  A one-tick run moves no record after
    # the sink has seen it.
    seen = []

    def sink(tick, new_packets, moved, values, outcomes, ants, declared):
        seen.append((new_packets, outcomes))

    run(replace(packet_config(path3, good=1, infected=[0], ticks=1, seed=4), sink=sink))
    [(spawned, outcomes)] = seen
    assert [type(out) for out in outcomes] == [Packet, Packet]
    for record in [*spawned, *outcomes]:
        assert not hasattr(record, "__dict__")
    assert [(out.id, out.event, out.route[out.position]) for out in outcomes] == [
        (0, "delivered", 0), (1, "detected", 1)
    ]
    assert outcomes == [Packet(0, False, (1, 0), 1, False), Packet(1, True, (0, 1, 2), 1, True)]
    assert Packet(0, True, (0, 1, 2), 1, True) != Packet(0, True, (0, 1, 2), 1, False)


def test_packet_travelling_forward_has_no_kind(path10):
    # neither packet of tick 0 reaches its far end in the run: neither ends,
    # so no write of either kind is made for it
    config = packet_config(path10, good=1, infected=[0], detect=0.0, ticks=3, seed=3)
    ticks, _ = run_records(config)
    assert ticks[0].spawns == [(0, 1, 6, False), (1, 0, 5, True)]
    assert not {0, 1} & {pid for tick in ticks for pid, _, _ in tick.ends}
    assert [tick.writes for tick in ticks] == expected_writes(config, ticks)
    # nor does a clean packet on the longest route, 0 to 9, before it ends
    # delivered at 9 eight ticks after it spawns
    ticks, _ = run_records(packet_config(path10, good=1, ticks=9, seed=25))
    assert ticks[0].spawns[0] == (0, 0, 9, False)
    assert [(t, event, node) for t, tick in enumerate(ticks)
            for pid, event, node in tick.ends if pid == 0] == [(8, "delivered", 9)]


def test_malicious_detected_at_first_hop(path3):
    ticks, _ = run_records(packet_config(path3, infected=[0], ticks=2))
    assert ticks[0].spawns == [(0, 0, 2, True)]
    assert ticks[0].ends == [(0, "detected", 1)]
    assert ticks[1].writes == [(1, 0, "bad", 20.0)]


def test_malicious_evasion_spawns_good_confirm(path3):
    ticks, _ = run_records(packet_config(path3, infected=[0], detect=0.0))
    assert ticks[0].spawns == [(0, 0, 2, True)]
    assert ticks[0].ends == [] and ticks[1].ends[0] == (0, "delivered", 2)
    assert ticks[2].writes[0] == (2, 1, "good", 0.0)
    assert ticks[3].writes[0] == (1, 0, "good", 0.0)


def test_detected_mid_route_confirm_covers_traversed_prefix():
    # packet 0, from 0 to 4, is detected at its third hop, node 3; no packet
    # ended before it, so its writes come first
    ticks, _ = run_records(packet_config(path_topology(5), infected=[0], detect=0.5, ticks=6, seed=21))
    assert ticks[0].spawns == [(0, 0, 4, True)]
    assert ticks[2].ends[0] == (0, "detected", 3)
    assert [ticks[t].writes[0][:3] for t in (3, 4, 5)] == [
        (3, 2, "bad"), (2, 1, "bad"), (1, 0, "bad")
    ]


def test_false_positive_spawns_bad_confirm_full_route(path3):
    ticks, _ = run_records(packet_config(path3, good=1, fp=1.0, seed=3))
    assert ticks[0].spawns == [(0, 0, 2, False)]
    assert ticks[1].ends[0] == (0, "detected", 2)
    assert ticks[2].writes[0] == (2, 1, "bad", 20.0)
    assert ticks[3].writes[0][:3] == (1, 0, "bad")


# Each case names its id, so that adding a case renames no other case.
@pytest.mark.parametrize("malicious, inspected_at, detect_prob, seed", [
    pytest.param(False, [3], 0.0, 17, id="False-inspected_at0"),
    pytest.param(True, [1, 2, 3], 0.0, 9, id="True-inspected_at1"),
    pytest.param(False, [1], 0.0, 3, id="False-inspected_at2"),
    pytest.param(True, [1], 0.0, 0, id="True-inspected_at3"),
    pytest.param(True, [1], 1.0, 0, id="True-certain"),
])
def test_detector_is_asked_only_where_it_draws(malicious, inspected_at, detect_prob, seed):
    """A clean packet meets the detector only at its destination; a
    malicious one at every hop after its source.  Each meeting is one draw,
    even where ``detect_prob`` makes its outcome certain: on the one-hop
    route (0, 1) both kinds draw once, at node 1.  Every packet of the run
    is of the case's kind, and the first runs from 0 to the last node
    inspected, its destination, which it reaches at the run's last tick."""
    last = inspected_at[-1]
    ticks, draws = run_records(packet_config(
        path_topology(last + 1), good=0 if malicious else 1, infected=[0] if malicious else [],
        detect=detect_prob, ticks=last, seed=seed,
    ))
    assert ticks[0].spawns == [(0, 0, last, malicious)]
    assert ticks[-1].ends[0] == (0, "detected" if detect_prob else "delivered", last)
    assert draws == expected_draws(ticks)


def test_bad_confirm_deposits_along_direction(path3):
    # every packet is detected at node 1 and boosts 1 -> 0, never 0 -> 1
    ticks, _ = run_records(packet_config(path3, infected=[0]))
    assert [tick.writes for tick in ticks] == [
        [], [(1, 0, "bad", 20.0)], [(1, 0, "bad", 40.0)], [(1, 0, "bad", 60.0)]
    ]


def test_good_confirm_decays_each_hop(path3):
    # packet 0 is detected at node 2 and boosts 2 -> 1, then 1 -> 0; packet 1
    # is delivered at node 2, and its good walk back decays each in turn
    ticks, _ = run_records(packet_config(path3, infected=[0], detect=0.5, ticks=5, seed=252))
    assert ticks[1].ends == [(0, "detected", 2)] and ticks[2].ends == [(1, "delivered", 2)]
    assert ticks[2].writes == [(2, 1, "bad", 20.0)]
    assert ticks[3].writes == [(1, 0, "bad", 20.0), (2, 1, "good", 19.0)]
    assert ticks[4].writes[0] == (1, 0, "good", 19.0)


def test_every_packet_produces_exactly_one_confirmation(grid4x4):
    config = packet_config(grid4x4, good=6, attack=2, infected=[5], detect=0.4, fp=0.05,
                           ticks=60, seed=31)
    ticks, _ = run_records(config)
    routes = {pid: shortest_route(grid4x4, src, dst)
              for tick in ticks for pid, src, dst, _ in tick.spawns}
    ends = [end for tick in ticks for end in tick.ends]
    # each packet ends once, by the tick it reaches its destination, and a
    # packet that was not detected ended there
    ended = {pid for pid, _, _ in ends}
    assert len(ended) == len(ends)
    assert all(node == routes[pid][-1] for pid, event, node in ends if event == "delivered")
    for t, tick in enumerate(ticks):
        for pid, *_ in tick.spawns:
            if t + len(routes[pid]) - 2 < len(ticks):
                assert pid in ended
    # a clean packet meets the detector only at its destination, so it ends
    # there, detected or not, on the tick it arrives
    arrival = {pid: (t + len(routes[pid]) - 2, dst)
               for t, tick in enumerate(ticks) for pid, _, dst, malicious in tick.spawns
               if not malicious}
    assert all((t, node) == arrival[pid]
               for t, tick in enumerate(ticks) for pid, _, node in tick.ends if pid in arrival)
    # each end walks back one confirmation, bad exactly when detected, from
    # the node where it ended
    assert [tick.writes for tick in ticks] == expected_writes(config, ticks)


def test_updates_only_on_traversed_directed_edges(star10):
    # a write lands only on the reverse of a hop that an ended packet crossed
    # on its way out, up to where it ended
    ticks, _ = run_records(packet_config(star10, good=2, infected=[3], detect=0.5, ticks=10))
    routes = {pid: shortest_route(star10, src, dst)
              for tick in ticks for pid, src, dst, _ in tick.spawns}
    crossed = set()
    for tick in ticks:
        for pid, _, node in tick.ends:
            route = routes[pid]
            crossed |= set(zip(route, route[1:route.index(node) + 1]))
    written = {(u, v) for tick in ticks for u, v, _, _ in tick.writes}
    assert written and written <= {(v, u) for u, v in crossed}


@given(
    st.one_of(
        st.integers(2, 8).map(path_topology),
        st.tuples(st.integers(1, 4), st.integers(2, 4)).map(lambda rc: grid_topology(*rc)),
    ),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.integers(0, 2**32),
)
def test_confirmation_walks_back_along_its_packets_own_route(topo, detect_prob, seed):
    # each ended packet writes, one hop a tick, the directions of its own
    # route back from where it ended to its source
    config = packet_config(topo, good=1, infected=[0], detect=detect_prob, ticks=12, seed=seed)
    ticks, _ = run_records(config)
    assert [tick.writes for tick in ticks] == expected_writes(config, ticks)
