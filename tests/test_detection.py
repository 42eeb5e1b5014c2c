import math

import pytest

from anttrack.topology import InvalidConfig
from anttrack.transport import DetectorModel

from conftest import packet_config, path_topology, run_records


def ends_of(config):
    """Each end of the run, as (id, event, node, destination)."""
    ticks, _ = run_records(config)
    dsts = {pid: dst for tick in ticks for pid, _, dst, _ in tick.spawns}
    return [(pid, event, node, dsts[pid]) for tick in ticks for pid, event, node in tick.ends]


@pytest.mark.parametrize("prob", [-0.1, 1.1])
def test_detector_validation(prob):
    with pytest.raises(InvalidConfig):
        DetectorModel(detect_prob=prob)
    with pytest.raises(InvalidConfig):
        DetectorModel(false_positive_prob=prob)


def test_certain_detection_at_first_hop(path3):
    # one malicious packet a tick from node 0, each detected at node 1 at once
    ticks, _ = run_records(packet_config(path3, infected=[0], ticks=20))
    assert [tick.ends for tick in ticks] == [[(t, "detected", 1)] for t in range(20)]


def test_clean_packet_delivered(path3):
    ends = ends_of(packet_config(path3, good=1, ticks=20))
    assert ends and all(event == "delivered" and node == dst for _, event, node, dst in ends)


def test_zero_detect_prob_always_misses(path3):
    for seed in (0, 1):
        ends = ends_of(packet_config(path3, infected=[0], detect=0.0, ticks=20, seed=seed))
        assert ends and all(event == "delivered" and node == dst for _, event, node, dst in ends)


def test_false_positive_flags_at_delivery(path3):
    ends = ends_of(packet_config(path3, good=1, fp=1.0, ticks=20))
    assert ends and all(event == "detected" and node == dst for _, event, node, dst in ends)


@pytest.mark.parametrize("prob", [0.0, 1.0])
def test_malicious_hop_consumes_one_draw(prob):
    # one malicious packet a tick on the one hop 0 -> 1: one draw each
    ticks, draws = run_records(packet_config(path_topology(2), infected=[0], detect=prob, ticks=10))
    assert [len(tick.ends) for tick in ticks] == [1] * 10
    assert draws == 10


def test_detection_hop_deterministic_per_seed(path3):
    def detection_hops(seed):
        return ends_of(packet_config(path3, infected=[0], detect=0.5, ticks=50, seed=seed))

    assert detection_hops(7) == detection_hops(7)
    assert detection_hops(7) != detection_hops(8)


def test_detected_fraction_matches_probability():
    # single-hop deliveries: one draw each; seeded binomial check
    q = 0.37
    n = 20_000
    config = packet_config(path_topology(2), attack=1000, infected=[0], detect=q, ticks=20, seed=123)
    ends = ends_of(config)
    assert len(ends) == n
    detected = sum(event == "detected" for _, event, _, _ in ends)
    bound = 3 * math.sqrt(q * (1 - q) / n)
    assert abs(detected / n - q) <= bound
