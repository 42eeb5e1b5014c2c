import random

import pytest

from anttrack.engine import generate_random_topology
from anttrack.topology import InvalidConfig, shortest_route
from anttrack.traffic import TrafficRates, generate_tick_traffic, route_cache

from conftest import star_topology


def fresh_traffic(topology, infected, rates, rng, first_id):
    """One tick of traffic routed through a route cache of its own."""
    return generate_tick_traffic(topology, infected, rates, rng, first_id, route_cache(topology))


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
        assert pkt.route == shortest_route(grid4x4, src, dst)


def test_route_memo_keeps_traffic_unchanged(grid4x4):
    infected = {0}
    rates = TrafficRates(good_packets_per_tick=10, attack_packets_per_infected_per_tick=3)
    routes = route_cache(grid4x4)
    rng_memo, rng_fresh = random.Random(4), random.Random(4)
    for tick in range(20):
        assert generate_tick_traffic(grid4x4, infected, rates, rng_memo, 0, routes) == (
            fresh_traffic(grid4x4, infected, rates, rng_fresh, 0)
        )
    route = routes(0, 15)
    assert routes(0, 15) is route == shortest_route(grid4x4, 0, 15)


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



def literal_endpoints(n, infected, rates, rng):
    """A tick's (src, dst) pairs drawn with ``randrange``, as the rule reads:
    each good packet a source, then one draw for the other endpoint; each
    infected node, ascending, one draw per attack packet."""
    pairs = []
    for _ in range(rates.good_packets_per_tick):
        src, dst = rng.randrange(n), rng.randrange(n - 1)
        pairs.append((src, dst + (dst >= src)))
    for node in sorted(infected):
        for _ in range(rates.attack_packets_per_infected_per_tick):
            dst = rng.randrange(n - 1)
            pairs.append((node, dst + (dst >= node)))
    return pairs


# 64 and 65: n and n - 1 differ in bit length
@pytest.mark.parametrize("n", [2, 3, 64, 65, 75, 1000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_endpoints_draw_as_the_stdlib_randrange(n, seed):
    """The inline endpoint draws give ``randrange``'s values and leave the
    generator in the same state.  Routes are stubbed by their endpoints."""
    rates = TrafficRates(good_packets_per_tick=50, attack_packets_per_infected_per_tick=3)
    infected = {n - 1, 0}
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    for first_id in (0, 62):
        packets = generate_tick_traffic(star_topology(n), infected, rates, rng, first_id,
                                        lambda src, dst: (src, dst))
        assert [pkt.route for pkt in packets] == literal_endpoints(n, infected, rates, oracle_rng)
        assert [pkt.id for pkt in packets] == list(range(first_id, first_id + 56))
        assert [pkt.malicious for pkt in packets] == [False] * 50 + [True] * 6
        assert rng.getstate() == oracle_rng.getstate()


def test_one_node_topology_is_refused():
    # an inline draw below n - 1 = 0 would never end
    rates = TrafficRates(good_packets_per_tick=1, attack_packets_per_infected_per_tick=1)
    with pytest.raises(ValueError, match="got 1"):
        fresh_traffic(star_topology(1), set(), rates, random.Random(0), 0)
