"""Sensor node model.

A node carries *static* attributes (identifiers, coordinates, user-assigned
roles -- Appendix B) that can be pre-indexed in routing tables.  Its *dynamic*
attributes (physical readings) change every sampling cycle and come from the
run's data source, not from the node.  The split is what makes pre-evaluation
of static predicates possible (Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

Position = Tuple[float, float]


@dataclass
class SensorNode:
    """A single sensor device in the multi-hop network.

    Parameters
    ----------
    node_id:
        Unique 16-bit identifier.
    position:
        Real-world coordinates in metres, used for radio connectivity, GPSR
        routing and region-based (``pos``) queries.
    is_base:
        Whether this node is the base station (root of the primary routing
        tree and sink for all query results).
    static_attributes:
        Attribute values that never change during a query's lifetime.
    """

    node_id: int
    position: Position
    is_base: bool = False
    static_attributes: Dict[str, Any] = field(default_factory=dict)
    alive: bool = True

    #: Set by the owning :class:`~repro.network.topology.Topology` so that
    #: liveness/position changes invalidate its routing caches.  Class-level
    #: (not a dataclass field) so the constructor signature is unchanged.
    _state_listener = None

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError("node_id must be non-negative")
        self.static_attributes.setdefault("id", self.node_id)
        self.static_attributes.setdefault("pos", self.position)

    # -- attribute access ----------------------------------------------------
    def set_static(self, name: str, value: Any) -> None:
        self.static_attributes[name] = value

    # -- lifecycle -------------------------------------------------------------
    def _notify_state_change(self) -> None:
        listener = self._state_listener
        if listener is not None:
            listener()

    def fail(self) -> None:
        """Permanently fail the node (battery depletion, crash, obstruction)."""
        self.alive = False
        self._notify_state_change()

    def distance_to(self, other: "SensorNode") -> float:
        """Euclidean distance in metres to another node."""
        dx = self.position[0] - other.position[0]
        dy = self.position[1] - other.position[1]
        return (dx * dx + dy * dy) ** 0.5

    def move_to(self, position: Position) -> None:
        """Relocate the node (mobility support, Appendix G)."""
        self.position = position
        self.static_attributes["pos"] = position
        self._notify_state_change()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "base" if self.is_base else "node"
        return f"SensorNode({role} {self.node_id} @ {self.position})"
