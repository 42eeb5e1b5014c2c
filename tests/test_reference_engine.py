"""Differential check of ``engine.run`` against a reference engine.

The reference below is a literal, unoptimised transcription of the
intra-tick order in ``engine.py``'s docstring and of the rules each module
states.  It shares only ``derive_rng`` with the package: its graph, routing,
traffic, detector, confirmations, field, agents, metrics and log
formatting are written out here from the rules, with plain dicts and lists.
On random small scenarios both must write the same event log, line for line,
and the same metrics; on each golden scenario the reference's log must hash
to the pin in ``tests/test_golden.py``.
"""

import hashlib
import heapq
import struct
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anttrack import cli
from anttrack.engine import SimulationConfig, derive_rng, run
from anttrack.pheromone import PheromoneParams
from anttrack.topology import NetworkTopology
from anttrack.traffic import TrafficRates
from anttrack.transport import DetectorModel

from conftest import SCENARIOS, logged_run
from test_golden import GOLDEN


def reference_route(adj, src, dst):
    """The lexicographically smallest of the minimum-hop routes: the first
    path to reach dst in (length, hop sequence) order."""
    heap = [(1, (src,))]
    done = set()
    while heap:
        _, path = heapq.heappop(heap)
        node = path[-1]
        if node == dst:
            return path
        if node in done:
            continue
        done.add(node)
        for nb in adj[node]:
            if nb not in done:
                heapq.heappush(heap, (len(path) + 1, path + (nb,)))
    raise AssertionError(f"no route from {src} to {dst}")


def reference_run(s):
    """Run scenario ``s`` (a dict of plain values); return (metrics as a
    dict, log lines)."""
    n, seed = s["nodes"], s["seed"]
    adj = {u: [] for u in range(n)}
    for a, b in s["edges"]:
        adj[a].append(b)
        adj[b].append(a)
    for u in adj:
        adj[u].sort()
    routes = {}
    traffic_rng = derive_rng(seed, "traffic")
    detect_rng = derive_rng(seed, "detect")
    ant_rngs = [derive_rng(seed, f"ant-{i}") for i in range(s["ants"])]

    infection_tick = {node: 0 for node in sorted(s["infected"])}
    first_declaration_tick = {}
    false_declarations = []
    pending = sorted(s["scripted"])
    level = {}  # (u, v) -> value, for every direction a confirmation crossed
    packets = []  # [id, malicious, route, position]
    confirmations = []  # [bad, route, position]
    ants = [
        {"id": i, "at": ant_rngs[i].randrange(n), "tracking": False, "came_from": None}
        for i in range(s["ants"])
    ]
    log = []
    next_id = 0

    def route(src, dst):
        if (src, dst) not in routes:
            routes[src, dst] = reference_route(adj, src, dst)
        return routes[src, dst]

    def other_node(src):
        d = traffic_rng.randrange(n - 1)
        return d + 1 if d >= src else d

    for tick in range(s["ticks"]):
        # (1) scripted infections
        while pending and pending[0][0] <= tick:
            infection_tick[pending.pop(0)[1]] = tick

        # (2) traffic: good packets, then each infected node's attack packets
        new = []
        for _ in range(s["good"]):
            src = traffic_rng.randrange(n)
            new.append([next_id + len(new), False, route(src, other_node(src)), 0])
        for node in sorted(infection_tick):
            for _ in range(s["attack"]):
                new.append([next_id + len(new), True, route(node, other_node(node)), 0])
        next_id += len(new)
        packets += new
        spawn_lines = [f"PKT,{tick},spawn,{p[0]},{p[2][0]},{p[2][-1]},{int(p[1])}" for p in new]

        # (3) confirmations move one hop and write the field
        phero_lines = []
        moving = []
        for conf in confirmations:
            bad, back, pos = conf
            u, v = back[pos], back[pos + 1]
            if bad:
                level[u, v] = level.get((u, v), 0.0) + s["inc"]
            else:
                level[u, v] = level.get((u, v), 0.0) * s["dec"]
            phero_lines.append(
                f"PHERO,{tick},{u},{v},{'bad' if bad else 'good'},{level[u, v]:.9g}"
            )
            conf[2] += 1
            if conf[2] < len(back) - 1:
                moving.append(conf)
        confirmations = moving

        # (4) packets move one hop; a malicious packet meets a detector draw
        # at every hop, a clean one only at its destination
        outcome_lines = []
        spawned = []
        moving = []
        for pkt in packets:
            pkt[3] += 1
            pid, malicious, path, pos = pkt
            node = path[pos]
            if malicious:
                detected = detect_rng.random() < s["detect_prob"]
            elif node == path[-1]:
                detected = detect_rng.random() < s["false_positive_prob"]
            else:
                detected = False
            if detected:
                spawned.append([True, path[: pos + 1][::-1], 0])
                outcome_lines.append(f"PKT,{tick},detected,{pid},{node}")
            elif node == path[-1]:
                spawned.append([False, path[::-1], 0])
                outcome_lines.append(f"PKT,{tick},delivered,{pid},{node}")
            else:
                moving.append(pkt)
        packets = moving
        confirmations += spawned

        records = b"".join(struct.pack("<iid", u, v, level[u, v]) for u, v in sorted(level))
        field_line = f"FIELD,{tick},{hashlib.sha1(records).hexdigest()[:16]}"

        # (5) agents, in id order, never stepping back along the arrival edge
        # to follow a trail
        ant_lines = []
        declared = []
        for ant in ants:
            rng = ant_rngs[ant["id"]]
            here = ant["at"]
            hot = [
                (nb, level.get((here, nb), 0.0))
                for nb in adj[here]
                if nb != ant["came_from"] and level.get((here, nb), 0.0) > s["threshold"]
            ]
            if not hot and ant["tracking"]:
                ant["tracking"] = False
                ant["came_from"] = None
                declared.append((ant["id"], here))
            else:
                if not hot:
                    nxt = adj[here][rng.randrange(len(adj[here]))]
                else:
                    top = max(lv for _, lv in hot)
                    nxt = min(nb for nb, lv in hot if lv == top)
                if hot:
                    ant["tracking"] = True
                ant["came_from"] = here
                ant["at"] = nxt
            mode = "tracking" if ant["tracking"] else "wandering"
            ant_lines.append(f"ANT,{tick},{ant['id']},{ant['at']},{mode}")

        # (6) declarations, in id order
        decl_lines = []
        for ant_id, node in declared:
            decl_lines.append(f"DECL,{tick},{ant_id},{node}")
            if node in infection_tick:
                first_declaration_tick.setdefault(node, tick)
            elif node not in [m for m, _ in false_declarations]:
                false_declarations.append((node, tick))

        log += spawn_lines + phero_lines + outcome_lines + [field_line]
        log += ant_lines + decl_lines

    all_identified = None
    if infection_tick and all(node in first_declaration_tick for node in infection_tick):
        all_identified = max(first_declaration_tick[node] for node in infection_tick)
    metrics = {
        "first_declaration_tick": first_declaration_tick,
        "all_identified_tick": all_identified,
        "false_declaration_tick": dict(false_declarations),
        "infection_tick": infection_tick,
    }
    return metrics, log


@st.composite
def connected_graphs(draw):
    """A random spanning tree plus extra edges, on at most 12 nodes, with
    shuffled node labels."""
    n = draw(st.integers(2, 12))
    label = draw(st.permutations(range(n)))
    edges = {tuple(sorted((i, draw(st.integers(0, i - 1))))) for i in range(1, n)}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    return n, sorted(tuple(sorted((label[a], label[b]))) for a, b in edges)


probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
positive = st.one_of(
    st.sampled_from([5e-324, 1e-9, 10.0, 1e300]),
    st.floats(1e-3, 1e3),
)


@st.composite
def scenarios(draw):
    n, edges = draw(connected_graphs())
    infected = draw(st.sets(st.integers(0, n - 1), max_size=3))
    scripted_nodes = draw(st.sets(st.integers(0, n - 1), max_size=3)) - infected
    ticks = draw(st.integers(1, 40))
    inc = draw(positive)
    return {
        "nodes": n,
        "edges": edges,
        "seed": draw(st.integers(0, 2**32)),
        "ticks": ticks,
        "ants": draw(st.integers(0, 4)),
        "good": draw(st.integers(0, 6)),
        "attack": draw(st.integers(1, 3)),
        "infected": infected,
        "scripted": [(draw(st.integers(0, ticks + 2)), node) for node in sorted(scripted_nodes)],
        "detect_prob": draw(probabilities),
        "false_positive_prob": draw(probabilities),
        "inc": inc,
        "dec": draw(st.one_of(
            st.sampled_from([5e-324, 0.5, 0.95, 1 - 2**-53]),
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        )),
        # at, just below and just above inc, where one boost crosses it
        "threshold": draw(st.one_of(
            positive, st.sampled_from([inc, inc * (1 - 2**-52), inc * (1 + 2**-52)])
        )),
    }


def engine_config(s):
    return SimulationConfig(
        topology=NetworkTopology.from_edges(s["nodes"], s["edges"]),
        params=PheromoneParams(increase=s["inc"], decay=s["dec"], threshold=s["threshold"]),
        rates=TrafficRates(s["good"], s["attack"]),
        detector=DetectorModel(s["detect_prob"], s["false_positive_prob"]),
        ant_count=s["ants"],
        infections=tuple(sorted([(0, node) for node in s["infected"]] + s["scripted"])),
        max_ticks=s["ticks"],
        seed=s["seed"],
    )


# Fixed scenarios that every pass runs.  With dec 5e-324 two clean
# confirmations take a boosted direction to exactly 0.0 and a bad one lifts it
# again, so the log's PHERO text for a direction goes from formatted values
# to the zero text and back.  With inc 5e-324 and dec 0.5 every non-zero
# value is subnormal, and halving the smallest one gives 0.0.
NON_ZERO_ZERO_NON_ZERO = {
    "nodes": 6, "edges": [(0, 1), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5)], "seed": 1,
    "ticks": 40, "ants": 2, "good": 4, "attack": 2, "infected": {0}, "scripted": [(10, 5)],
    "detect_prob": 0.5, "false_positive_prob": 0.1, "inc": 10.0, "dec": 5e-324,
    "threshold": 5.0,
}
SUBNORMAL = {
    "nodes": 5, "edges": [(0, 1), (0, 2), (0, 3), (0, 4), (2, 3)], "seed": 7,
    "ticks": 40, "ants": 3, "good": 5, "attack": 1, "infected": {3}, "scripted": [],
    "detect_prob": 1.0, "false_positive_prob": 0.0, "inc": 5e-324, "dec": 0.5,
    "threshold": 5e-324,
}
# Every attack evades the detector to its destination and every clean packet
# is flagged there, so both branches of the packet advance run on every pass.
EVADE_AND_FLAG = {
    "nodes": 6, "edges": [(0, 1), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5)], "seed": 3,
    "ticks": 30, "ants": 2, "good": 4, "attack": 2, "infected": {0}, "scripted": [(8, 5)],
    "detect_prob": 0.0, "false_positive_prob": 1.0, "inc": 10.0, "dec": 0.5,
    "threshold": 5.0,
}


@settings(max_examples=150, deadline=None)
@given(scenarios())
@example(NON_ZERO_ZERO_NON_ZERO)
@example(SUBNORMAL)
@example(EVADE_AND_FLAG)
def test_engine_matches_reference(s):
    ref_metrics, ref_log = reference_run(s)
    metrics, log = logged_run(engine_config(s))
    for i, (want, got) in enumerate(zip(ref_log, log)):
        assert got == want, f"log line {i + 1} differs"
    assert len(log) == len(ref_log)
    assert asdict(metrics) == ref_metrics
    # dict equality ignores order; the map keeps first-declaration order
    want = ref_metrics["false_declaration_tick"]
    assert list(metrics.false_declaration_tick.items()) == list(want.items())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reference_reproduces_golden_run(name):
    """The reference runs each golden scenario at full scale: its parameters
    read from the scenario file, its graph the package's topology edges,
    since the graph generator has an oracle of its own.  Its log, joined,
    hashes to the pinned ``events.log``, and its metrics are the engine's."""
    data = cli.parse_scenario(SCENARIOS / f"{name}.scn")
    config = cli.build_config(data)
    topo = config.topology
    s = {
        "nodes": topo.node_count,
        "edges": [(u, v) for u, ns in enumerate(topo.adjacency) for v in ns if u < v],
        "seed": data["seed"],
        "ticks": data["max_ticks"],
        "ants": data["ant_count"],
        "good": data["good_packets_per_tick"],
        "attack": data["attack_packets_per_infected_per_tick"],
        "infected": set(data["infected"]),
        "scripted": data["infect_at"],
        "detect_prob": data["detect_prob"],
        "false_positive_prob": data["false_positive_prob"],
        "inc": data["inc"],
        "dec": data["dec"],
        "threshold": data["threshold"],
    }
    ref_metrics, ref_log = reference_run(s)
    events_hash, _, log_lines = GOLDEN[name]
    assert len(ref_log) == log_lines
    assert hashlib.sha256(("\n".join(ref_log) + "\n").encode()).hexdigest() == events_hash
    metrics = run(config)
    assert asdict(metrics) == ref_metrics
    want = ref_metrics["false_declaration_tick"]
    assert list(metrics.false_declaration_tick.items()) == list(want.items())
