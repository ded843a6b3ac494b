"""Sampling-cycle network simulator.

The paper charges a query's cost per sampling cycle: bytes transferred on
mote networks, messages on mesh networks.  The simulator has one transport
model, **instant accounting**: :meth:`NetworkSimulator.transfer` charges a
message's whole path in one call (every sender on the path transmits, plus
the retransmissions its link model draws).  The join executor charges a
cycle -- or a block of lossless cycles -- through
:class:`~repro.network.batch.CycleBatcher` instead: the same link-model
draws, one array-level pipeline event for the whole block --
unless a node is dead.  Result delay is not simulated hop by hop;
strategies account it in :class:`~repro.joins.base.ResultAccounting`.

On a path through a dead node, :meth:`transfer` walks the path hop by hop
instead, and the first dead node (or a lossy hop that exhausts its
retransmissions) drops the message.  Forwarding queues are unbounded: the
routing-queue overflow of Yang+07 is not modelled.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.metrics.pipeline import MetricsPipeline, MetricsSink
from repro.network.links import LinkModel, perfect_links
from repro.network.message import MessageKind, MessageSizes
from repro.network.topology import Topology
from repro.network.traffic import TrafficAccounting, TrafficStats


class NetworkSimulator:
    """Message-level simulator over a :class:`~repro.network.topology.Topology`.

    Parameters
    ----------
    topology:
        The deployment to simulate.
    link_model:
        Loss/retransmission model; defaults to perfect links.
    accounting:
        ``BYTES`` for mote networks, ``MESSAGES`` for 802.11 mesh networks.
    sizes:
        Byte-size model for the different message kinds.
    sinks:
        Additional :class:`~repro.metrics.pipeline.MetricsSink` instances
        registered on the metrics pipeline (energy, hotspot, ...).  The
        built-in :class:`~repro.network.traffic.TrafficStats` is always
        present; extra sinks are observers and never change traffic results.
    """

    def __init__(
        self,
        topology: Topology,
        link_model: Optional[LinkModel] = None,
        accounting: TrafficAccounting = TrafficAccounting.BYTES,
        sizes: Optional[MessageSizes] = None,
        sinks: Optional[Sequence[MetricsSink]] = None,
    ) -> None:
        self.topology = topology
        self.links = link_model or perfect_links()
        self.sizes = sizes or MessageSizes()
        self.stats = TrafficStats(accounting=accounting)
        # Every charge point emits through the pipeline; the traffic stats
        # are a built-in, non-reporting sink (the execution report covers
        # them already).
        self.pipeline = MetricsPipeline()
        self.pipeline.add_sink(self.stats, reporting=False)
        #: Simulation time: sampling cycles completed so far.
        self.sampling_cycle = 0
        # Local mirror of the topology's alive set, refreshed per epoch, so
        # the transfer fast path skips the cache-property indirection.
        self._alive_epoch = -1
        self._alive_set: frozenset = frozenset()
        for sink in sinks or ():
            self.add_sink(sink)

    # ------------------------------------------------------------------
    # metrics pipeline
    # ------------------------------------------------------------------
    def add_sink(self, sink: MetricsSink) -> MetricsSink:
        """Register an additional metrics sink, binding it to this simulator.

        The charge points dispatch through ``self.pipeline``'s event
        attributes on every call (an instance-dict load, no dearer than the
        historical ``self.stats.charge_*`` bound-method lookup), so sinks
        added at any time -- here or directly on the pipeline -- observe all
        subsequent events; this wrapper additionally gives the sink its
        ``attach`` callback (topology, accounting mode).
        """
        attach = getattr(sink, "attach", None)
        if attach is not None:
            attach(self)
        self.pipeline.add_sink(sink)
        return sink

    def _current_alive_set(self) -> frozenset:
        topology = self.topology
        if topology.routing_epoch != self._alive_epoch:
            cache = topology.routing_cache
            self._alive_set = cache.alive_set
            self._alive_epoch = cache.epoch
        return self._alive_set

    def all_alive(self) -> bool:
        """Whether every node is alive: the condition for charging through a
        batcher, since only the per-hop :meth:`transfer` walk models a dead
        hop."""
        return len(self._current_alive_set()) == len(self.topology.nodes)

    # ------------------------------------------------------------------
    # instant accounting transport
    # ------------------------------------------------------------------
    def transfer(
        self,
        path: Sequence[int],
        size_bytes: int,
        kind: MessageKind = MessageKind.DATA,
    ) -> bool:
        """Charge a message travelling the whole *path* in one call.

        Every node except the last transmits once (plus retransmissions drawn
        from the link model).  Returns ``True`` if the message reached the end
        of the path, ``False`` if a hop failed.

        When every node on the path is alive, the whole path is charged with
        one vectorized accounting call (and, on lossy links, one batched draw
        from the link model); otherwise each hop is charged in turn.
        """
        num_hops = len(path) - 1
        if num_hops < 0:
            raise ValueError("path must contain at least one node")
        if num_hops == 0:
            return True
        if self._current_alive_set().issuperset(path):
            if self.links.loss_probability == 0.0:
                self.pipeline.charge_path(path, size_bytes, kind)
            else:
                delivered, attempts = self.links.attempt_hops(num_hops)
                if not delivered.all():
                    failed_at = int(np.argmax(~delivered))
                    self.pipeline.charge_path(
                        path, size_bytes, kind,
                        attempts=attempts, num_hops=failed_at + 1,
                    )
                    self.pipeline.charge_drop()
                    return False
                self.pipeline.charge_path(path, size_bytes, kind, attempts=attempts)
            return True
        for index in range(num_hops):
            sender = path[index]
            receiver = path[index + 1]
            if not self.topology.nodes[sender].alive or not self.topology.nodes[receiver].alive:
                self.pipeline.charge_drop()
                return False
            delivered_hop, attempts = self.links.attempt_hop()
            self.pipeline.charge_transmission(
                sender, size_bytes, kind, attempts=attempts, receiver=receiver
            )
            if not delivered_hop:
                self.pipeline.charge_drop()
                return False
        return True

    def broadcast(
        self, node_id: int, size_bytes: int, kind: MessageKind = MessageKind.CONTROL
    ) -> List[int]:
        """One local broadcast: a single transmission heard by all neighbours.

        Only *alive* neighbours are charged received traffic: dead nodes have
        no radio, so they must not accumulate load (the cached alive adjacency
        is epoch-validated, so this holds after failures and mobility too).
        """
        if not self.topology.nodes[node_id].alive:
            return []
        neighbours = self.topology.routing_cache.alive_adjacency.get(node_id, [])
        self.pipeline.charge_broadcast(node_id, size_bytes, kind, neighbours)
        return list(neighbours)

    # ------------------------------------------------------------------
    # sampling-cycle bookkeeping
    # ------------------------------------------------------------------
    def advance_sampling_cycle(self) -> None:
        """Move to the next sampling cycle and tell the sinks."""
        self.sampling_cycle += 1
        self.pipeline.on_sampling_cycle(self.sampling_cycle)
