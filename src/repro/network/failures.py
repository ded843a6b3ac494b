"""Permanent node-failure injection (Section 7).

A :class:`FailureInjector` holds a schedule of node failures expressed in
sampling cycles.  The join execution engine asks it, at the start of every
sampling cycle, which nodes fail now; the affected nodes are marked dead in
the topology, after which routing and the executor's repair logic take over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.network.topology import Topology


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled permanent failure."""

    node_id: int
    sampling_cycle: int

    def __post_init__(self) -> None:
        if self.sampling_cycle < 0:
            raise ValueError("sampling_cycle must be non-negative")


@dataclass
class FailureInjector:
    """A schedule of permanent node failures."""

    events: List[FailureEvent] = field(default_factory=list)

    def schedule(self, node_id: int, sampling_cycle: int) -> None:
        self.events.append(FailureEvent(node_id=node_id, sampling_cycle=sampling_cycle))

    def schedule_fraction_of_run(
        self, node_id: int, total_cycles: int, fraction: float
    ) -> None:
        """Schedule a failure a given fraction into the run (paper: 45-55 %)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.schedule(node_id, int(total_cycles * fraction))

    def failures_at(self, sampling_cycle: int) -> List[int]:
        """Nodes that fail exactly at this sampling cycle."""
        return [e.node_id for e in self.events if e.sampling_cycle == sampling_cycle]

    def apply(self, topology: Topology, sampling_cycle: int) -> List[int]:
        """Mark nodes failing at *sampling_cycle* as dead; returns their ids."""
        failed = []
        for node_id in self.failures_at(sampling_cycle):
            node = topology.nodes.get(node_id)
            if node is not None and node.alive:
                node.fail()
                failed.append(node_id)
        if failed:
            # node.fail() already notifies the owning topology, but a node can
            # be shared between topologies (only the last owner gets the
            # callback) -- invalidate explicitly so routing caches never serve
            # paths through the dead nodes.
            topology.invalidate_routing_caches()
        return failed

    def is_empty(self) -> bool:
        return not self.events
