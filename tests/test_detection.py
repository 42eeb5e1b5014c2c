import math
import random

import pytest

from anttrack.topology import InvalidConfig
from anttrack.transport import DetectorModel, Packet, inspect_at_hop


def make_packet(malicious: bool) -> Packet:
    return Packet(0, malicious=malicious, route=(0, 1, 2))


@pytest.mark.parametrize("prob", [-0.1, 1.1])
def test_detector_validation(prob):
    with pytest.raises(InvalidConfig):
        DetectorModel(detect_prob=prob)
    with pytest.raises(InvalidConfig):
        DetectorModel(false_positive_prob=prob)


def test_certain_detection_at_first_hop():
    detector = DetectorModel(detect_prob=1.0)
    assert inspect_at_hop(make_packet(True), detector, random.Random(0)) is True


def test_clean_packet_delivered():
    detector = DetectorModel(false_positive_prob=0.0)
    pkt = make_packet(False)
    assert inspect_at_hop(pkt, detector, random.Random(0)) is False


def test_zero_detect_prob_always_misses():
    detector = DetectorModel(detect_prob=0.0)
    pkt = make_packet(True)
    for seed in (0, 1):
        assert inspect_at_hop(pkt, detector, random.Random(seed)) is False


def test_false_positive_flags_at_delivery():
    detector = DetectorModel(false_positive_prob=1.0)
    assert inspect_at_hop(make_packet(False), detector, random.Random(0)) is True


@pytest.mark.parametrize("prob", [0.0, 1.0])
def test_malicious_hop_consumes_one_draw(prob):
    rng, reference = random.Random(42), random.Random(42)
    inspect_at_hop(make_packet(True), DetectorModel(detect_prob=prob), rng)
    reference.random()
    assert rng.getstate() == reference.getstate()


def test_detection_hop_deterministic_per_seed():
    detector = DetectorModel(detect_prob=0.5)

    def detection_hops(seed):
        rng = random.Random(seed)
        hops = []
        for _ in range(50):
            pkt = make_packet(True)
            for node in (1, 2):
                if inspect_at_hop(pkt, detector, rng):
                    hops.append(node)
                    break
            else:
                hops.append(None)
        return hops

    assert detection_hops(7) == detection_hops(7)
    assert detection_hops(7) != detection_hops(8)


def test_detected_fraction_matches_probability():
    # single-hop deliveries: one draw each; seeded binomial check
    q = 0.37
    n = 20_000
    detector = DetectorModel(detect_prob=q)
    rng = random.Random(123)
    pkt = Packet(0, malicious=True, route=(0, 1))
    detected = sum(
        inspect_at_hop(pkt, detector, rng) for _ in range(n)
    )
    bound = 3 * math.sqrt(q * (1 - q) / n)
    assert abs(detected / n - q) <= bound
