"""Simulation clock, scenario execution, metrics, and the event log.

Intra-tick order is fixed: (1) scheduled infections, (2) traffic generation,
(3) confirmation movement (pheromone updates), (4) packet movement
(inspections; confirmations spawned here first move next tick), (5) agent
steps against the now-stable field in ant_id order, each declaration filed
right after the step that makes it, and (6) the tick's report to its sink.
The event log, one sink, digests the field after packet movement, which the
agents leave unchanged.  A run is a pure function of its config: the master
seed derives independent substreams per role, so traffic and detection
randomness do not depend on how many agents are deployed.
"""

from __future__ import annotations

import hashlib
import random
import struct
from collections.abc import Callable
from dataclasses import dataclass, field

from .ant import AntState, ant_step
from .pheromone import PheromoneField, PheromoneParams
from .topology import InvalidConfig, NetworkTopology
from .traffic import TrafficRates, generate_tick_traffic, route_cache
from .transport import DetectorModel, InFlight, advance_confirmations, advance_packets


def derive_rng(master_seed: int, tag: str) -> random.Random:
    """Independent substream for a role, stable in the seed and tag only."""
    digest = hashlib.sha256(f"{master_seed}/{tag}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# Far above any shipped scenario (200 agents at most): a larger count only
# exhausts memory while the agents are built, so it is rejected by name.
MAX_ANT_COUNT = 10_000

# A random topology draws every node pair, quadratic in the node count: 10x
# the largest shipped or benchmark graph (1000 nodes), drawn in seconds.  Its
# expected edge count n(n - 1)/2 * p is bounded too, since each edge costs
# about 185 bytes while drawn: the bound admits 1000 nodes at p = 1 (499,500
# edges, about 90 MiB) and refuses 10,000 nodes at p = 1 (about 9 GiB).
MAX_RANDOM_TOPOLOGY_NODES = 10_000
MAX_RANDOM_TOPOLOGY_EDGES = 500_000


@dataclass(frozen=True)
class SimulationConfig:
    """One run's inputs, checked on construction.  ``infections`` is the
    infection schedule: (tick, node) pairs, each node at most once; a node
    is infected at the start of its tick, so tick 0 gives the nodes infected
    from the outset.  At the end of each tick ``run`` calls ``sink(tick,
    new_packets, moved, values, outcomes, ants, declared)``: the packets
    spawned, the confirmations moved (each at its new position) and the value
    each wrote, the packets that ended (each its own outcome record: ``id``,
    ``event`` and the node ``route[position]`` where it ended), every agent,
    and the (ant id, node) declarations.  A sink reads them during the call,
    as ``run`` mutates them later: an ended packet's position first moves on
    the next tick.  A run builds nothing for ``sink=None``, and its metrics
    do not depend on the sink."""

    topology: NetworkTopology
    params: PheromoneParams = PheromoneParams()
    rates: TrafficRates = TrafficRates()
    detector: DetectorModel = DetectorModel()
    ant_count: int = 3
    infections: tuple[tuple[int, int], ...] = ()
    max_ticks: int = 1000
    seed: int = 0
    sink: Callable[..., object] | None = None

    def __post_init__(self):
        n = self.topology.node_count
        if n < 2:
            # every packet needs a destination other than its source, and
            # every agent a neighbour to move to
            raise InvalidConfig(f"node_count must be >= 2, got {n}")
        if self.max_ticks <= 0:
            raise InvalidConfig(f"max_ticks must be > 0, got {self.max_ticks}")
        if self.ant_count < 0:
            raise InvalidConfig(f"ant_count must be >= 0, got {self.ant_count}")
        if self.ant_count > MAX_ANT_COUNT:
            raise InvalidConfig(f"ant_count must be <= {MAX_ANT_COUNT}, got {self.ant_count}")
        if self.sink is not None and not callable(self.sink):
            raise InvalidConfig(f"sink must be a callable or None, got {self.sink!r}")
        seen = set()
        for tick, node in self.infections:
            if tick < 0:
                raise InvalidConfig(f"infection tick {tick} is negative")
            if not 0 <= node < n:
                raise InvalidConfig(f"infection node {node} out of range")
            if node in seen:
                raise InvalidConfig(f"node {node} would be infected twice")
            seen.add(node)
        # last, routing's reach levels: a config past their budget never runs
        self.topology.levels


@dataclass
class Metrics:
    """Identification outcomes of one run.  ``infection_tick`` is also the
    run's infected set: ``run`` adds each node as it is infected.  A node
    declared while infected goes in ``first_declaration_tick``, otherwise in
    ``false_declaration_tick``; each maps it to its first such tick."""

    first_declaration_tick: dict[int, int] = field(default_factory=dict)
    all_identified_tick: int | None = None
    false_declaration_tick: dict[int, int] = field(default_factory=dict)
    infection_tick: dict[int, int] = field(default_factory=dict)


def _field_digest(records: list[bytes]) -> str:
    """First 16 hex digits of the SHA-1 over the ``<iid`` (u, v, value)
    records, in edge-id and so (u, v) order; a direction no confirmation has
    crossed has an empty record."""
    return hashlib.sha1(b"".join(records)).hexdigest()[:16]


_pack_record = struct.Struct("<iid").pack


def event_log(topology: NetworkTopology, write: Callable[[str], object]):
    """The event log's sink for a run on ``topology``: it formats a tick's
    record lines, each newline-terminated, in log order, and passes them to
    ``write`` as one string.  Its tables, built here once per run, are lists
    indexed by edge id, read through ``rows``, the topology's ``out_ids``
    rows in a list indexed by node (every node the sink reads comes from a
    route, so none is negative): the ``<iid`` FIELD-digest record, empty
    until a confirmation first crosses the direction; the zero PHERO text
    with its record; and the ``"u,v,good,"`` and ``"u,v,bad,"`` PHERO
    prefixes: 2E entries each for E connections, whatever ``max_ticks`` is."""
    rows = list(topology.out_ids.values())
    pairs = [(u, v) for u, row in enumerate(rows) for v in row]
    records = [b""] * len(pairs)
    zeros = [(f"{u},{v},good,0", _pack_record(u, v, 0.0)) for u, v in pairs]
    good = [f"{u},{v},good," for u, v in pairs]
    bad = [f"{u},{v},bad," for u, v in pairs]

    def sink(tick, new_packets, moved, values, outcomes, ants, declared) -> None:
        """A confirmation in ``moved`` now at position p wrote its value in
        ``values`` to ``route[p + 1] -> route[p]``.  Only a clean write can
        leave zero: 91% of default75's writes take the zero table, and 14% of
        noisy75's, where the prefixes make the logged run 7-10% faster.  A
        step moves only its own ant, so ANT lines read after the last step
        show each ant's state after its own step."""
        pkt_tick = f"PKT,{tick},"
        lines = [
            f"{pkt_tick}spawn,{pkt.id},{pkt.route[0]},{pkt.route[-1]},{1 if pkt.malicious else 0}"
            for pkt in new_packets
        ]
        phero = []
        add = phero.append
        for conf, value in zip(moved, values):
            route, p = conf.route, conf.position
            e = rows[route[p + 1]][route[p]]
            if value:
                add(f"{(bad if conf.bad else good)[e]}{value:.9g}")
                records[e] = _pack_record(route[p + 1], route[p], value)
            else:
                text, records[e] = zeros[e]
                add(text)
        if phero:
            sep = f"PHERO,{tick},"
            lines.append(sep + ("\n" + sep).join(phero))
        lines += [f"{pkt_tick}{out.event},{out.id},{out.route[out.position]}" for out in outcomes]
        lines.append(f"FIELD,{tick},{_field_digest(records)}")
        lines += [f"ANT,{tick},{ant.ant_id},{ant.location},{ant.mode.value}" for ant in ants]
        lines += [f"DECL,{tick},{ant_id},{node}" for ant_id, node in declared]
        write("\n".join(lines) + "\n")

    return sink


def run(config: SimulationConfig) -> Metrics:
    """Execute max_ticks ticks of the scenario and return its metrics."""
    topo = config.topology
    traffic_rng = derive_rng(config.seed, "traffic")
    detect_rng = derive_rng(config.seed, "detect")
    ant_rngs = [derive_rng(config.seed, f"ant-{i}") for i in range(config.ant_count)]

    metrics = Metrics()
    infected = metrics.infection_tick
    first_declared, false_declared = metrics.first_declaration_tick, metrics.false_declaration_tick
    pending_infections = sorted(config.infections)

    pheromones = PheromoneField(topo)
    routes = route_cache(topo)
    inflight = InFlight(len(topo.levels) - 1)  # levels k = 0 .. diameter
    ants = [AntState(i, r.randrange(topo.node_count)) for i, r in enumerate(ant_rngs)]
    # each step's tables, fetched once: the field writes its array in place
    agents = [(ant, rng.getrandbits) for ant, rng in zip(ants, ant_rngs)]
    out_pairs, levels, threshold = topo.out_pairs, pheromones.values, config.params.threshold
    next_packet_id = 0

    for tick in range(config.max_ticks):
        while pending_infections and pending_infections[0][0] <= tick:
            _, node = pending_infections.pop(0)
            infected[node] = tick

        new_packets = generate_tick_traffic(
            topo, infected, config.rates, traffic_rng, next_packet_id, routes
        )
        next_packet_id += len(new_packets)
        inflight.send(new_packets)

        moved = inflight.confirmations
        values = advance_confirmations(inflight, pheromones, config.params)

        spawned, outcomes = advance_packets(inflight, config.detector, detect_rng)
        inflight.confirmations.extend(spawned)

        declared: list[tuple[int, int]] = []
        for ant, getrandbits in agents:
            node = ant_step(ant, out_pairs, levels, threshold, getrandbits)
            if node is not None:
                declared.append((ant.ant_id, node))
                filed = first_declared if node in infected else false_declared
                filed.setdefault(node, tick)

        if config.sink is not None:
            config.sink(tick, new_packets, moved, values, outcomes, ants, declared)

    if infected and infected.keys() <= first_declared.keys():
        metrics.all_identified_tick = max(first_declared[n] for n in infected)
    return metrics


# the two 32-bit words of one random() draw, first word first
_unpack_words = struct.Struct("<II").unpack_from


def generate_random_topology(
    node_count: int, extra_edge_prob: float, rng: random.Random
) -> NetworkTopology:
    """Random connected graph: a random spanning tree plus every remaining
    node pair independently with extra_edge_prob.

    Each non-tree pair (a, b), a < b, in ascending (a, b) order, takes the
    two 32-bit words of one ``rng.random()`` and is kept when that draw,
    compared exactly, is below extra_edge_prob; tree pairs take none.  So a
    seed fixes the graph and the state the generator leaves ``rng`` in."""
    if node_count < 2:
        raise InvalidConfig(f"node_count must be >= 2, got {node_count}")
    if node_count > MAX_RANDOM_TOPOLOGY_NODES:
        raise InvalidConfig(f"node_count must be <= {MAX_RANDOM_TOPOLOGY_NODES}, got {node_count}")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise InvalidConfig(f"extra_edge_prob must be in [0, 1], got {extra_edge_prob}")
    expected = node_count * (node_count - 1) / 2 * extra_edge_prob
    if expected > MAX_RANDOM_TOPOLOGY_EDGES:
        raise InvalidConfig(
            f"expected edge count n(n - 1)/2 * p must be <= {MAX_RANDOM_TOPOLOGY_EDGES}, "
            f"got {expected:.0f} for {node_count} nodes at p = {extra_edge_prob}"
        )
    order = list(range(node_count))
    rng.shuffle(order)
    tree_above: list[list[int]] = [[] for _ in range(node_count)]
    for i in range(1, node_count):
        a, b = order[i], order[rng.randrange(i)]
        tree_above[min(a, b)].append(max(a, b))
    # row a's words come from one getrandbits call; a draw whose first
    # word's top byte is t lies in [t/256, (t+1)/256), so that byte marks
    # it kept (1) below p, dropped (0) at or above it, compared (2) across it
    p = extra_edge_prob
    marks = bytes(1 if (t + 1) / 256 <= p else 0 if t / 256 >= p else 2 for t in range(256))
    edges: list[tuple[int, int]] = []
    for a in range(node_count):
        k = node_count - 1 - a - len(tree_above[a])
        # pair j's draw is bytes 8j..8j+7, its first word's top byte at 8j+3
        words = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        row = bytearray(words[3::8].translate(marks))
        j = row.find(2)
        while j >= 0:
            hi, lo = _unpack_words(words, 8 * j)  # compared as random() computes it
            row[j] = ((hi >> 5) * 67108864.0 + (lo >> 6)) * (1.0 / 9007199254740992.0) < p
            j = row.find(2, j + 1)
        for b in sorted(tree_above[a]):
            row.insert(b - a - 1, 1)
        j = row.find(1)
        while j >= 0:
            edges.append((a, a + 1 + j))
            j = row.find(1, j + 1)
    return NetworkTopology.from_edges(node_count, edges)


def metrics_to_csv(metrics: Metrics) -> str:
    """CSV summary: one row per infected node with declaration latency."""
    rows = ["node,infected_tick,declared_tick,latency"]
    for node in sorted(metrics.infection_tick):
        itick = metrics.infection_tick[node]
        dtick = metrics.first_declaration_tick.get(node)
        if dtick is None:
            rows.append(f"{node},{itick},,")
        else:
            rows.append(f"{node},{itick},{dtick},{dtick - itick}")
    return "\n".join(rows) + "\n"
