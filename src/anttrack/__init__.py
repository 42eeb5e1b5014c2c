"""Packet-level simulator of pheromone-trail identification of infected
network nodes.

Connections carry a scalar pheromone value updated by confirmation packets
traveling back toward each data packet's source; lightweight agents follow
value trails above a threshold and declare the node where a trail ends as
infected.
"""

from .engine import (
    SimulationConfig,
    event_log,
    metrics_to_csv,
    run,
)
from .pheromone import PheromoneField, PheromoneParams, closed_form_value
from .topology import NetworkTopology
from .traffic import TrafficRates

__version__ = "0.1.0"
