"""Centralized optimization baseline and exhaustive optimal placement.

Section 4.3 compares the paper's distributed initiation against a centralized
scheme in which the base station first collects the information it needs
(connectivity and static attribute values) from every node, optimizes
centrally, and ships the plan back into the network.  The comparison shows
the centralized scheme congests the base (~3x more traffic at the base) and
incurs up to 5x higher latency.  Figure 7 additionally compares the traffic
of the decentralized placement against the true optimum computed with global
knowledge; this module provides both baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.cost_model import Selectivities, innet_pair_cost
from repro.network.message import MessageKind, MessageSizes
from repro.network.simulator import NetworkSimulator
from repro.network.topology import Topology
from repro.routing.tree import RoutingTree

Pair = Tuple[int, int]


@dataclass
class CentralizedInitiationReport:
    """Traffic and latency of the centralized collect-and-distribute phase."""

    collection_traffic: float
    distribution_traffic: float
    traffic_at_base: float
    latency_cycles: float

    @property
    def total_traffic(self) -> float:
        return self.collection_traffic + self.distribution_traffic


def centralized_initiation(
    topology: Topology,
    involved_nodes: Sequence[int],
    simulator: Optional[NetworkSimulator] = None,
    sizes: Optional[MessageSizes] = None,
    neighbor_entry_bytes: int = 2,
    attribute_bytes: int = 8,
) -> CentralizedInitiationReport:
    """Model the centralized scheme's initiation phase.

    Every node ships its neighbour list and static attribute values to the
    base along the routing tree; the base then sends the chosen plan back to
    each node involved in the query.  Latency is dominated by the sequential
    funnelling of reports through the base's neighbourhood: the base can
    receive only one report per transmission cycle, so latency grows with the
    number of nodes rather than with network depth (this is the effect behind
    Figure 6b).
    """
    sizes = sizes or MessageSizes()
    tree = RoutingTree(topology)
    own_simulator = simulator or NetworkSimulator(topology)

    collection = 0.0
    for node_id in topology.node_ids:
        if node_id == topology.base_id:
            continue
        neighbours = topology.neighbors(node_id)
        report_size = sizes.header + neighbor_entry_bytes * len(neighbours) + attribute_bytes
        path = tree.path_to_root(node_id)
        own_simulator.transfer(path, report_size, MessageKind.CONTROL)
        collection += report_size * (len(path) - 1)

    distribution = 0.0
    plan_size = sizes.control(num_fields=4)
    for node_id in involved_nodes:
        if node_id == topology.base_id:
            continue
        path = tree.path_from_root(node_id)
        own_simulator.transfer(path, plan_size, MessageKind.CONTROL)
        distribution += plan_size * (len(path) - 1)

    traffic_at_base = own_simulator.stats.at_base(topology.base_id)
    # Reports arrive one at a time at the base station; the last one also had
    # to travel its full path.  Plan distribution then takes one tree depth.
    max_depth = max(tree.depth_of(n) for n in topology.node_ids)
    latency = (topology.num_nodes - 1) + max_depth + max_depth
    return CentralizedInitiationReport(
        collection_traffic=collection,
        distribution_traffic=distribution,
        traffic_at_base=traffic_at_base,
        latency_cycles=float(latency),
    )


def distributed_initiation_latency(topology: Topology, pairs: Sequence[Pair]) -> float:
    """Latency of the distributed scheme: pair explorations run in parallel,
    so latency is bounded by the longest source-to-target path plus the reply."""
    longest = 0
    for source, target in pairs:
        hops = topology.hops_between(source, target)
        if hops is not None:
            longest = max(longest, hops)
    return float(2 * longest)


@dataclass
class CentralizedOptimizer:
    """Exhaustive join-node placement with global knowledge (Figure 7)."""

    topology: Topology

    def optimal_join_node(
        self,
        source: int,
        target: int,
        selectivities: Selectivities,
        window_size: int,
    ) -> Tuple[int, float]:
        """The cost-minimal join node over *all* network nodes."""
        # Read-only views of the topology's cached BFS tables: across a batch
        # of pairs the per-endpoint and base tables are computed only once.
        hops_from_source = self.topology.shortest_hops_view(source)
        hops_from_target = self.topology.shortest_hops_view(target)
        hops_from_base = self.topology.shortest_hops_view(self.topology.base_id)
        best_node = self.topology.base_id
        best_cost = float("inf")
        for node_id in self.topology.node_ids:
            if not self.topology.nodes[node_id].alive:
                continue
            if node_id not in hops_from_source or node_id not in hops_from_target:
                continue
            cost = innet_pair_cost(
                selectivities,
                window_size,
                d_sj=hops_from_source[node_id],
                d_tj=hops_from_target[node_id],
                d_jr=hops_from_base.get(node_id, 0),
            )
            if cost < best_cost:
                best_cost = cost
                best_node = node_id
        return best_node, best_cost


def optimal_pair_placements(
    topology: Topology,
    pairs: Sequence[Pair],
    selectivities: Selectivities,
    window_size: int,
) -> Dict[Pair, Tuple[int, float]]:
    """Optimal join node and cost for every pair (global knowledge)."""
    optimizer = CentralizedOptimizer(topology)
    return {
        pair: optimizer.optimal_join_node(pair[0], pair[1], selectivities, window_size)
        for pair in pairs
    }
