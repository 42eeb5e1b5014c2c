import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from anttrack import transport
from anttrack.pheromone import PheromoneField, PheromoneParams
from anttrack.topology import shortest_route
from anttrack.traffic import TrafficRates, generate_tick_traffic, route_cache
from anttrack.transport import (
    DetectorModel,
    InFlight,
    Packet,
    advance_confirmations,
    advance_packets,
)

from conftest import RecordingField, confirmation_path, grid_topology, path_topology

PARAMS = PheromoneParams()


class ScriptedRng:
    """Detection draws that fire only on inspection number ``fire_at``
    (never, if it is None)."""

    def __init__(self, fire_at):
        self.calls = 0
        self.fire_at = fire_at

    def random(self):
        self.calls += 1
        return 0.0 if self.calls == self.fire_at else 1.0


def test_good_packet_walkthrough():
    detector = DetectorModel()
    rng = random.Random(0)
    state = InFlight(packets=[Packet(0, False, (0, 1, 2))])

    spawned, outcomes = advance_packets(state, detector, rng)
    assert spawned == [] and outcomes == []
    assert state.packets[0].position == 1

    spawned, outcomes = advance_packets(state, detector, rng)
    assert state.packets == []
    assert len(spawned) == 1
    assert spawned[0].bad is False
    assert confirmation_path(spawned[0]) == (2, 1, 0)
    # the ended packet is its own outcome record
    out = outcomes[0]
    assert out.id == 0
    assert out.event == "delivered" and out.route[out.position] == 2


def test_packet_records_are_slotted_and_outcomes_compare_by_value():
    # A packet is built once per packet on the tick path and is its own
    # outcome record: no second record is built when it ends (BENCH_39.json).
    # It is slotted and not frozen, since a frozen dataclass made a record
    # about four times dearer to build (BENCH_26.json): bring frozen=True
    # back only with a measurement.
    state = InFlight(packets=[Packet(0, True, (0, 1, 2)), Packet(1, False, (0, 1))])
    spawned, outcomes = advance_packets(state, DetectorModel(), random.Random(0))
    assert [type(out) for out in outcomes] == [Packet, Packet]
    for record in [*spawned, *outcomes]:
        assert not hasattr(record, "__dict__")
    assert [(out.id, out.event, out.route[out.position]) for out in outcomes] == [
        (0, "detected", 1), (1, "delivered", 1)
    ]
    assert outcomes == [Packet(0, True, (0, 1, 2), 1, True), Packet(1, False, (0, 1), 1, False)]
    assert Packet(0, True, (0, 1, 2), 1, True) != Packet(0, True, (0, 1, 2), 1, False)


def test_packet_travelling_forward_has_no_kind():
    state = InFlight(packets=[Packet(0, True, (0, 1, 2, 3)), Packet(1, False, (0, 1, 2))])
    assert all(pkt.bad is None for pkt in state.packets)
    spawned, _ = advance_packets(state, DetectorModel(detect_prob=0.0), random.Random(0))
    assert spawned == [] and [pkt.position for pkt in state.packets] == [1, 1]
    assert all(pkt.bad is None for pkt in state.packets)


def test_malicious_detected_at_first_hop():
    detector = DetectorModel(detect_prob=1.0)
    state = InFlight(packets=[Packet(0, True, (0, 1, 2))])
    spawned, outcomes = advance_packets(state, detector, random.Random(0))
    assert state.packets == []
    assert spawned[0].bad is True
    assert confirmation_path(spawned[0]) == (1, 0)
    out = outcomes[0]
    assert out.id == 0
    assert out.event == "detected" and out.route[out.position] == 1


def test_malicious_evasion_spawns_good_confirm():
    detector = DetectorModel(detect_prob=0.0)
    state = InFlight(packets=[Packet(0, True, (0, 1, 2))])
    advance_packets(state, detector, random.Random(0))
    spawned, outcomes = advance_packets(state, detector, random.Random(0))
    assert spawned[0].bad is False
    assert confirmation_path(spawned[0]) == (2, 1, 0)
    assert outcomes[0].event == "delivered"


def test_detected_mid_route_confirm_covers_traversed_prefix():
    detector = DetectorModel(detect_prob=0.5)
    state = InFlight(packets=[Packet(0, True, (0, 1, 2, 3, 4))])
    rng = ScriptedRng(fire_at=3)
    spawned = []
    while state.packets:
        new, _ = advance_packets(state, detector, rng)
        spawned.extend(new)
    assert len(spawned) == 1
    assert spawned[0].bad is True
    assert confirmation_path(spawned[0]) == (3, 2, 1, 0)


def test_false_positive_spawns_bad_confirm_full_route():
    detector = DetectorModel(false_positive_prob=1.0)
    state = InFlight(packets=[Packet(0, False, (0, 1, 2))])
    advance_packets(state, detector, random.Random(0))
    spawned, outcomes = advance_packets(state, detector, random.Random(0))
    assert spawned[0].bad is True
    assert confirmation_path(spawned[0]) == (2, 1, 0)
    assert outcomes[0].event == "detected"


# Each case names its id, so that adding a case renames no other case.
@pytest.mark.parametrize("malicious, inspected_at, detect_prob", [
    pytest.param(False, [3], 0.0, id="False-inspected_at0"),
    pytest.param(True, [1, 2, 3], 0.0, id="True-inspected_at1"),
    pytest.param(False, [1], 0.0, id="False-inspected_at2"),
    pytest.param(True, [1], 0.0, id="True-inspected_at3"),
    pytest.param(True, [1], 1.0, id="True-certain"),
])
def test_detector_is_asked_only_where_it_draws(monkeypatch, malicious, inspected_at, detect_prob):
    """A clean packet meets the detector only at its destination; a
    malicious one at every hop after its source.  Each meeting is one draw,
    even where ``detect_prob`` makes its outcome certain: on the one-hop
    route (0, 1) both kinds draw once, at node 1.  The route runs from 0 to
    the last node inspected, the destination, since the detector ends no
    packet before it."""
    nodes = []
    real_inspect = transport.inspect_at_hop

    def counting_inspect(packet, detector, rng):
        nodes.append(packet.route[packet.position])
        return real_inspect(packet, detector, rng)

    monkeypatch.setattr(transport, "inspect_at_hop", counting_inspect)
    rng, reference = random.Random(9), random.Random(9)
    state = InFlight(packets=[Packet(0, malicious, tuple(range(inspected_at[-1] + 1)))])
    while state.packets:
        advance_packets(state, DetectorModel(detect_prob=detect_prob), rng)
    assert nodes == inspected_at
    for _ in inspected_at:
        reference.random()
    assert rng.getstate() == reference.getstate()


def test_bad_confirm_deposits_along_direction(path3):
    field = PheromoneField(path3)
    state = InFlight(confirmations=[Packet(0, True, (0, 1), 1, True)])
    assert advance_confirmations(state, field, PARAMS) == [20.0]
    assert field.read_level(1, 0) == 20.0
    assert field.read_level(0, 1) == 0.0
    assert state.confirmations == []


def test_good_confirm_decays_each_hop(path3):
    field = PheromoneField(path3)
    field.apply_bad(2, 1, PARAMS)
    field.apply_bad(1, 0, PARAMS)
    state = InFlight(confirmations=[Packet(0, False, (0, 1, 2), 2, False)])

    values = advance_confirmations(state, field, PARAMS)
    assert len(values) == 1 and math.isclose(values[0], 19.0, rel_tol=1e-12)
    assert math.isclose(field.read_level(2, 1), 19.0, rel_tol=1e-12)
    assert field.read_level(1, 0) == 20.0
    assert len(state.confirmations) == 1

    values = advance_confirmations(state, field, PARAMS)
    assert len(values) == 1 and math.isclose(values[0], 19.0, rel_tol=1e-12)
    assert math.isclose(field.read_level(1, 0), 19.0, rel_tol=1e-12)
    assert state.confirmations == []


def test_every_packet_produces_exactly_one_confirmation(grid4x4):
    rng = random.Random(31)
    detect_rng = random.Random(32)
    detector = DetectorModel(detect_prob=0.4, false_positive_prob=0.05)
    rates = TrafficRates(good_packets_per_tick=6, attack_packets_per_infected_per_tick=2)
    field = PheromoneField(grid4x4)
    state = InFlight()
    routes = route_cache(grid4x4)

    spawned_ids = []
    ended_ids = []
    next_id = 0
    for tick in range(60):
        if tick < 40:  # stop injecting so everything drains
            packets = generate_tick_traffic(grid4x4, {5}, rates, rng, next_id, routes)
            next_id += len(packets)
            spawned_ids.extend(p.id for p in packets)
            state.packets.extend(packets)
        advance_confirmations(state, field, PARAMS)
        new_confirms, outcomes = advance_packets(state, detector, detect_rng)
        # each packet that ends spawns one confirmation, in outcome order,
        # from the node where it ended; it is bad exactly when detected, and
        # a packet that was not detected ended at its destination
        assert len(new_confirms) == len(outcomes)
        for conf, out in zip(new_confirms, outcomes):
            assert conf.id == out.id
            assert conf.route[conf.position] == out.route[out.position]
            assert (conf.bad is True) == (out.event == "detected")
            if out.event == "delivered":
                assert out.route[out.position] == out.route[-1]
        ended_ids.extend(out.id for out in outcomes)
        state.confirmations.extend(new_confirms)

    assert state.packets == [] and state.confirmations == []
    assert Counter(ended_ids) == Counter(spawned_ids)


def test_updates_only_on_traversed_directed_edges(star10):
    field = RecordingField(star10)
    state = InFlight(
        confirmations=[
            Packet(0, True, (3, 0), 1, True),
            Packet(1, False, (7, 0, 5), 2, False),
        ]
    )
    advance_confirmations(state, field, PARAMS)
    advance_confirmations(state, field, PARAMS)
    assert field.written.keys() == {(0, 3), (5, 0), (0, 7)}


@st.composite
def routed_packets(draw):
    """A topology, a malicious packet's minimum-hop route on it, and the hop
    at which the detector fires (None: the packet is delivered)."""
    topo = draw(st.one_of(
        st.integers(2, 8).map(path_topology),
        st.tuples(st.integers(1, 4), st.integers(2, 4)).map(lambda rc: grid_topology(*rc)),
    ))
    src = draw(st.integers(0, topo.node_count - 1))
    dst = draw(st.integers(0, topo.node_count - 1).filter(lambda d: d != src))
    route = shortest_route(topo, src, dst)
    fire_at = draw(st.none() | st.integers(1, len(route) - 1))
    return topo, route, fire_at


@given(routed_packets())
def test_confirmation_walks_back_along_its_packets_own_route(case):
    topo, route, fire_at = case
    packet = Packet(0, True, route)
    state = InFlight(packets=[packet])
    detector = DetectorModel(detect_prob=0.5)
    rng = ScriptedRng(fire_at)
    spawned = []
    while state.packets:
        new, _ = advance_packets(state, detector, rng)
        spawned.extend(new)
    assert len(spawned) == 1
    conf = spawned[0]
    # the confirmation is the packet itself, turned around on its own route
    # rather than on a reversed copy
    assert conf is packet
    assert conf.route is route
    p = len(route) - 1 if fire_at is None else fire_at
    assert conf.bad is (fire_at is not None)

    # a minimum-hop route crosses each direction at most once, so the
    # order of first writes is the order of all writes
    field = RecordingField(topo)
    state.confirmations = spawned
    while state.confirmations:
        advance_confirmations(state, field, PARAMS)
    back = tuple(reversed(route[: p + 1]))
    assert list(field.written) == list(zip(back, back[1:]))
