"""Simulation clock, scenario execution, metrics, and the event log.

Intra-tick order is fixed: (1) scheduled infections, (2) traffic generation,
(3) confirmation movement (pheromone updates), (4) packet movement
(inspections; confirmations spawned here first move next tick), (5) agent
steps against the now-stable field in ant_id order, (6) the tick's
declarations, in ant_id order.  A run that builds the event log formats
the tick's records once, at the end of the tick; its FIELD digest is the
field after packet movement, which the agents leave unchanged.  A run is a
pure function of its config: the master seed derives independent
substreams per role, so traffic and detection randomness do not depend on
how many agents are deployed.
"""

from __future__ import annotations

import hashlib
import random
import struct
from collections.abc import Callable
from dataclasses import dataclass, field

from .ant import AntState, ant_step
from .pheromone import PheromoneEvent, PheromoneField, PheromoneParams
from .topology import NetworkTopology
from .traffic import RouteMemo, TrafficRates, generate_tick_traffic
from .transport import DetectorModel, InFlight, advance_confirmations, advance_packets


class InvalidConfig(Exception):
    pass


def derive_rng(master_seed: int, tag: str) -> random.Random:
    """Independent substream for a role, stable in the seed and tag only."""
    digest = hashlib.sha256(f"{master_seed}/{tag}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class SimulationConfig:
    """One run's inputs, checked on construction.  ``infections`` is the
    infection schedule: (tick, node) pairs, each node at most once; a node
    is infected at the start of its tick, so tick 0 gives the nodes infected
    from the outset.  ``log`` is where the event log goes: ``run`` calls it
    once at the end of each tick with that tick's record lines, each
    newline-terminated, and keeps none of them.  With ``log=None`` it formats
    no record line and computes no FIELD digest.  The metrics are the same
    either way."""

    topology: NetworkTopology
    params: PheromoneParams = PheromoneParams()
    rates: TrafficRates = TrafficRates()
    detector: DetectorModel = DetectorModel()
    ant_count: int = 3
    infections: tuple[tuple[int, int], ...] = ()
    max_ticks: int = 1000
    seed: int = 0
    log: Callable[[str], object] | None = None

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
        if self.log is not None and not callable(self.log):
            raise InvalidConfig(f"log must be a callable or None, got {self.log!r}")
        seen = set()
        for tick, node in self.infections:
            if tick < 0:
                raise InvalidConfig(f"infection tick {tick} is negative")
            if not 0 <= node < n:
                raise InvalidConfig(f"infection node {node} out of range")
            if node in seen:
                raise InvalidConfig(f"node {node} would be infected twice")
            seen.add(node)


@dataclass
class Metrics:
    """Identification outcomes of one run.  ``infection_tick`` is also the
    run's infected set: ``run`` adds each node as it is infected."""

    first_declaration_tick: dict[int, int] = field(default_factory=dict)
    all_identified_tick: int | None = None
    false_declarations: list[tuple[int, int]] = field(default_factory=list)
    infection_tick: dict[int, int] = field(default_factory=dict)


def _field_digest(records: dict[tuple[int, int], bytes]) -> str:
    """First 16 hex digits of the SHA-1 over the ``<iid`` (u, v, value)
    records, in the map's order, which is edge-id and so (u, v) order; a
    direction no confirmation has crossed has an empty record."""
    return hashlib.sha1(b"".join(records.values())).hexdigest()[:16]


_pack_record = struct.Struct("<iid").pack
_BAD = PheromoneEvent.BAD


def _tick_log(tick, new_packets, updates, outcomes, records, texts, ants, declared) -> str:
    """One tick's record lines, each newline-terminated, in log order.  Each
    PHERO update also repacks its direction's FIELD-digest record first.
    ``texts`` holds the run's PHERO text per (direction, kind), filled the
    first time one is logged: ``"u,v,kind,"``, the zero suffix
    ``"u,v,kind,0"`` and the packed zero record.  A zero value (a clean
    confirmation on a direction no bad one has crossed) reuses the last two;
    only a non-zero value is formatted and packed.  The key is
    ``(u, v, kind is BAD)``, since hashing an Enum member runs Python code.
    A step moves only its own ant, so ANT lines read after the last step
    show each ant's state after its own step."""
    lines = [
        f"PKT,{tick},spawn,{pkt.id},{pkt.route[0]},{pkt.route[-1]},{1 if pkt.malicious else 0}"
        for pkt in new_packets
    ]
    phero = []
    for u, v, kind, value in updates:
        key = u, v, kind is _BAD
        text = texts.get(key)
        if text is None:
            prefix = f"{u},{v},{kind.value},"
            text = texts[key] = (prefix, prefix + "0", _pack_record(u, v, 0.0))
        if value:
            phero.append(f"{text[0]}{value:.9g}")
            records[u, v] = _pack_record(u, v, value)
        else:
            phero.append(text[1])
            records[u, v] = text[2]
    if phero:
        sep = f"PHERO,{tick},"
        lines.append(sep + ("\n" + sep).join(phero))
    lines.extend(f"PKT,{tick},{out.event},{out.packet_id},{out.node}" for out in outcomes)
    lines.append(f"FIELD,{tick},{_field_digest(records)}")
    lines.extend(f"ANT,{tick},{ant.ant_id},{ant.location},{ant.mode.value}" for ant in ants)
    lines.extend(f"DECL,{tick},{ant_id},{node}" for ant_id, node in declared)
    return "\n".join(lines) + "\n"


def run(config: SimulationConfig) -> Metrics:
    """Execute max_ticks ticks of the scenario and return its metrics.  With
    ``config.log`` set, each tick's tick-stamped PKT/PHERO/FIELD/ANT/DECL
    record lines go to it as one string at the end of that tick."""
    topo = config.topology
    traffic_rng = derive_rng(config.seed, "traffic")
    detect_rng = derive_rng(config.seed, "detect")
    ant_rngs = [derive_rng(config.seed, f"ant-{i}") for i in range(config.ant_count)]

    metrics = Metrics()
    infected = metrics.infection_tick
    pending_infections = sorted(config.infections)

    pheromones = PheromoneField(topo)
    routes = RouteMemo(topo)
    inflight = InFlight()
    ants = [
        AntState(i, location=ant_rngs[i].randrange(topo.node_count))
        for i in range(config.ant_count)
    ]
    # a logged run keeps each direction's FIELD-digest record, in edge-id
    # order, and the PHERO text of each (direction, kind) it has logged
    records = dict.fromkeys(topo.edge_ids, b"") if config.log is not None else None
    texts: dict[tuple[int, int, bool], tuple[str, str, bytes]] = {}
    next_packet_id = 0

    for tick in range(config.max_ticks):
        while pending_infections and pending_infections[0][0] <= tick:
            _, node = pending_infections.pop(0)
            infected[node] = tick

        new_packets = generate_tick_traffic(
            topo, infected, config.rates, traffic_rng, next_packet_id, routes
        )
        next_packet_id += len(new_packets)
        inflight.packets.extend(new_packets)

        updates = advance_confirmations(inflight, pheromones, config.params)

        spawned, outcomes = advance_packets(inflight, config.detector, detect_rng)
        inflight.confirmations.extend(spawned)

        declared: list[tuple[int, int]] = []
        for ant in ants:
            node = ant_step(ant, topo, pheromones, config.params, ant_rngs[ant.ant_id])
            if node is not None:
                declared.append((ant.ant_id, node))

        for ant_id, node in declared:
            if node in infected:
                metrics.first_declaration_tick.setdefault(node, tick)
            elif node not in (n for n, _ in metrics.false_declarations):
                metrics.false_declarations.append((node, tick))

        if config.log is not None:
            config.log(_tick_log(tick, new_packets, updates, outcomes, records, texts, ants, declared))

    if infected and infected.keys() <= metrics.first_declaration_tick.keys():
        metrics.all_identified_tick = max(metrics.first_declaration_tick[n] for n in infected)
    return metrics


def generate_random_topology(
    node_count: int, extra_edge_prob: float, rng: random.Random
) -> NetworkTopology:
    """Random connected graph: a random spanning tree plus every remaining
    node pair independently with extra_edge_prob."""
    if node_count < 2:
        raise InvalidConfig(f"node_count must be >= 2, got {node_count}")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise InvalidConfig(f"extra_edge_prob must be in [0, 1], got {extra_edge_prob}")
    order = list(range(node_count))
    rng.shuffle(order)
    edges: set[tuple[int, int]] = set()
    for i in range(1, node_count):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((a, b) if a < b else (b, a))
    for a in range(node_count):
        for b in range(a + 1, node_count):
            if (a, b) not in edges and rng.random() < extra_edge_prob:
                edges.add((a, b))
    return NetworkTopology.from_edges(node_count, sorted(edges))


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
