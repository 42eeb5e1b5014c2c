import random

import pytest

from anttrack.engine import generate_random_topology
from anttrack.topology import InvalidConfig, shortest_route
from anttrack.traffic import RouteMemo, TrafficRates, generate_tick_traffic


def fresh_traffic(topology, infected, rates, rng, first_id):
    """One tick of traffic routed through a memo of its own."""
    return generate_tick_traffic(topology, infected, rates, rng, first_id, RouteMemo(topology))


def test_rates_validation():
    with pytest.raises(InvalidConfig):
        TrafficRates(good_packets_per_tick=-1)
    with pytest.raises(InvalidConfig):
        TrafficRates(attack_packets_per_infected_per_tick=0)


def test_no_traffic(path10):
    rates = TrafficRates(good_packets_per_tick=0, attack_packets_per_infected_per_tick=1)
    packets = fresh_traffic(path10, set(), rates, random.Random(0), 0)
    assert packets == []


def test_attack_packet_counts(path10):
    rates = TrafficRates(good_packets_per_tick=0, attack_packets_per_infected_per_tick=2)
    packets = fresh_traffic(path10, {4}, rates, random.Random(0), 0)
    assert len(packets) == 2
    assert all(p.malicious and p.route[0] == 4 for p in packets)


def test_generation_order_and_ids(star10):
    rates = TrafficRates(good_packets_per_tick=3, attack_packets_per_infected_per_tick=2)
    # given in infection order, not node order
    packets = fresh_traffic(star10, {7: 0, 2: 0}, rates, random.Random(5), 10)
    assert [p.id for p in packets] == list(range(10, 17))
    assert [p.malicious for p in packets] == [False] * 3 + [True] * 4
    # infected nodes emit in ascending node order
    assert [p.route[0] for p in packets[3:]] == [2, 2, 7, 7]


def test_packets_carry_shortest_routes(grid4x4):
    rates = TrafficRates(good_packets_per_tick=20, attack_packets_per_infected_per_tick=3)
    for pkt in fresh_traffic(grid4x4, {0}, rates, random.Random(3), 0):
        src, dst = pkt.route[0], pkt.route[-1]
        assert pkt.position == 0
        assert src != dst
        assert pkt.route == shortest_route(grid4x4, src, dst, [])


def test_route_memo_keeps_traffic_unchanged(grid4x4):
    infected = {0}
    rates = TrafficRates(good_packets_per_tick=10, attack_packets_per_infected_per_tick=3)
    memo = RouteMemo(grid4x4)
    rng_memo, rng_fresh = random.Random(4), random.Random(4)
    for tick in range(20):
        assert generate_tick_traffic(grid4x4, infected, rates, rng_memo, 0, memo) == (
            fresh_traffic(grid4x4, infected, rates, rng_fresh, 0)
        )
    route = memo[0, 15]
    assert memo[0, 15] is route == shortest_route(grid4x4, 0, 15, [])


def test_identical_seeds_identical_traffic():
    rng = random.Random(17)
    topo = generate_random_topology(12, 0.2, rng)
    rates = TrafficRates(good_packets_per_tick=8, attack_packets_per_infected_per_tick=2)
    a = fresh_traffic(topo, {3}, rates, random.Random(77), 0)
    b = fresh_traffic(topo, {3}, rates, random.Random(77), 0)
    assert a == b
    c = fresh_traffic(topo, {3}, rates, random.Random(78), 0)
    assert a != c


def test_good_packets_never_malicious(path10):
    rates = TrafficRates(good_packets_per_tick=50, attack_packets_per_infected_per_tick=1)
    packets = fresh_traffic(path10, set(), rates, random.Random(9), 0)
    assert len(packets) == 50
    assert not any(p.malicious for p in packets)


def test_malicious_sources_are_infected(star10):
    infected = {1, 5}
    rates = TrafficRates(good_packets_per_tick=10, attack_packets_per_infected_per_tick=3)
    for pkt in fresh_traffic(star10, infected, rates, random.Random(2), 0):
        if pkt.malicious:
            assert pkt.route[0] in infected

