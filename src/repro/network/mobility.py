"""Mobile leaf nodes (Appendix G).

The paper constrains mobile nodes (e.g. PDAs) to be topology leaves so that a
move only requires re-attaching the node to a new set of parents and
propagating updated attribute summaries up the affected routing trees.  This
module performs the topology surgery and reports which links changed; the
routing layer computes the resulting summary-update traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.network.node import Position
from repro.network.topology import Topology


@dataclass(frozen=True)
class MobilityEvent:
    """Result of moving a node: which links disappeared and appeared."""

    node_id: int
    old_position: Position
    new_position: Position
    removed_links: Tuple[int, ...]
    added_links: Tuple[int, ...]

    @property
    def changed_neighbors(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.removed_links) | set(self.added_links)))


def is_leaf(topology: Topology, node_id: int) -> bool:
    """A node is a (topology) leaf if removing it keeps the network connected."""
    if node_id == topology.base_id:
        return False
    return topology.is_connected(excluding=node_id)


def move_leaf_node(
    topology: Topology, node_id: int, new_position: Position
) -> MobilityEvent:
    """Move *node_id* to *new_position*, rewiring its radio links.

    Raises ``ValueError`` if the move would disconnect the node from the rest
    of the network, or if the node is not a leaf (the paper explicitly
    restricts mobility to leaf nodes).
    """
    if node_id not in topology.nodes:
        raise KeyError(f"unknown node {node_id}")
    if node_id == topology.base_id:
        raise ValueError("the base station cannot move")
    if not is_leaf(topology, node_id):
        raise ValueError(
            f"node {node_id} is not a leaf; the paper restricts mobility to leaves"
        )

    node = topology.nodes[node_id]
    old_position = node.position
    old_neighbours = set(topology.neighbors(node_id, only_alive=False))

    topology.remove_links_of(node_id)
    node.move_to(new_position)
    new_neighbours = set(topology.rebuild_links_of(node_id))

    if not new_neighbours:
        # Roll back: the new position is out of everyone's radio range.
        topology.remove_links_of(node_id)
        node.move_to(old_position)
        topology.rebuild_links_of(node_id)
        raise ValueError("new position is outside radio range of every other node")

    return MobilityEvent(
        node_id=node_id,
        old_position=old_position,
        new_position=new_position,
        removed_links=tuple(sorted(old_neighbours - new_neighbours)),
        added_links=tuple(sorted(new_neighbours - old_neighbours)),
    )


def max_supported_speed(
    radio_range_m: float, update_latency_cycles: float, seconds_per_cycle: float = 1.0
) -> float:
    """Movement speed (m/s) sustainable given summary-update latency.

    Appendix G: with a 10 m radio range and ~20 s to propagate routing-table
    updates, continuous connectivity is kept below roughly 0.5 m/s.
    """
    if update_latency_cycles <= 0:
        raise ValueError("update_latency_cycles must be positive")
    return radio_range_m / (update_latency_cycles * seconds_per_cycle)


def candidate_positions_near(
    topology: Topology, node_id: int, radius: float, count: int = 8
) -> List[Position]:
    """Candidate destinations on a circle around the node's current position."""
    import math

    x, y = topology.nodes[node_id].position
    return [
        (x + radius * math.cos(2 * math.pi * k / count),
         y + radius * math.sin(2 * math.pi * k / count))
        for k in range(count)
    ]
