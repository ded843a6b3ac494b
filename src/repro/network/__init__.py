"""Multi-hop wireless network substrate simulator.

This package is the substitute for the paper's TOSSIM / nesC mote deployment
and its Java 802.11 mesh simulator (see DESIGN.md).  It provides:

* :mod:`repro.network.node` -- sensor node model with static and dynamic
  attributes.
* :mod:`repro.network.topology` -- deployment generators matching the paper's
  evaluation: random topologies with 6/7/8/13 average neighbours, a grid
  topology, and an Intel-Research-Berkeley-like lab layout.
* :mod:`repro.network.message` -- message kinds and byte-size accounting.
* :mod:`repro.network.links` -- symmetric lossy links with retransmission.
* :mod:`repro.network.traffic` -- per-node and aggregate traffic statistics
  (bytes for mote networks, messages for mesh networks).
* :mod:`repro.network.simulator` -- the sampling-cycle simulator: instant
  per-path traffic accounting; a per-hop walk for paths through dead nodes.
* :mod:`repro.network.failures` -- permanent node-failure injection.
* :mod:`repro.network.mobility` -- leaf-node movement support.
"""

from repro.network.links import LinkModel
from repro.network.message import MessageKind, MessageSizes
from repro.network.node import SensorNode
from repro.network.simulator import NetworkSimulator
from repro.network.topology import (
    DENSITY_PRESETS,
    CSRAdjacency,
    Topology,
    grid_topology,
    intel_lab_topology,
    random_topology,
    topology_from_preset,
)
from repro.network.traffic import TrafficAccounting, TrafficStats
from repro.network.failures import FailureInjector, FailureEvent
from repro.network.mobility import MobilityEvent, move_leaf_node

__all__ = [
    "SensorNode",
    "CSRAdjacency",
    "Topology",
    "random_topology",
    "grid_topology",
    "intel_lab_topology",
    "topology_from_preset",
    "DENSITY_PRESETS",
    "MessageKind",
    "MessageSizes",
    "LinkModel",
    "TrafficStats",
    "TrafficAccounting",
    "NetworkSimulator",
    "FailureInjector",
    "FailureEvent",
    "MobilityEvent",
    "move_leaf_node",
]
