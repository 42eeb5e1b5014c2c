"""Packet-level simulator of pheromone-trail identification of infected
network nodes.

Connections carry a scalar pheromone value updated by confirmation packets
traveling back toward each data packet's source; lightweight agents follow
value trails above a threshold and declare the node where a trail ends as
infected.
"""

from .ant import AntMode, AntState, ant_step
from .detection import DetectorModel, inspect_at_hop
from .engine import (
    BandwidthStats,
    InvalidConfig,
    Metrics,
    SimulationConfig,
    compute_bandwidth_stats,
    derive_rng,
    generate_random_topology,
    metrics_to_csv,
    run,
)
from .pheromone import (
    NotAConnection,
    PheromoneEvent,
    PheromoneField,
    PheromoneParams,
    PheromoneState,
    closed_form_value,
)
from .topology import (
    DisconnectedGraph,
    DuplicateEdge,
    MalformedSpec,
    NetworkTopology,
    NoRoute,
    Route,
    SameNode,
    SelfLoop,
    TopologyError,
    dump_topology,
    load_topology,
    shortest_route,
)
from .traffic import (
    AlreadyInfected,
    InfectionState,
    Packet,
    RouteMemo,
    TrafficRates,
    generate_tick_traffic,
)
from .transport import (
    ConfirmationPacket,
    InFlight,
    PacketOutcome,
    advance_confirmations,
    advance_packets,
)

__version__ = "0.1.0"
