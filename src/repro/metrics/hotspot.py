"""Load-balance / hotspot sink (the Figure 5 per-node load view).

Maintains a streaming per-node radio-load ledger (transmitted plus received
units, mirroring ``TrafficStats.at_node``'s arithmetic exactly, including
retransmission attempts) and derives the load-balance metrics the paper's
hotspot discussion needs at summary time: the maximum node load, the ranked
top-k (Figure 5's bar chart), and a Gini coefficient of the load distribution
over battery-powered nodes -- 0 means perfectly balanced, values toward 1
mean a few relay hotspots carry everything.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.metrics.pipeline import MetricsSink


def gini_coefficient(values: List[float]) -> float:
    """Gini coefficient of a non-negative load distribution (0 = balanced)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    total = sum(ordered)
    if total <= 0.0:
        return 0.0
    count = len(ordered)
    weighted = 0.0
    for rank, value in enumerate(ordered, start=1):
        weighted += rank * value
    return (2.0 * weighted) / (count * total) - (count + 1) / count


class HotspotSink(MetricsSink):
    """Streaming per-node load with top-k, max-load and Gini summaries."""

    name = "hotspot"

    def __init__(self, top_k: int = 15,
                 bytes_per_unit: Optional[bool] = None) -> None:
        self.top_k = top_k
        #: Charge bytes (mote accounting) or one unit per message (mesh).
        #: ``None`` (the default) adopts the simulator's accounting mode at
        #: attach time; an explicit value always wins.
        self.bytes_per_unit = bytes_per_unit if bytes_per_unit is not None else True
        self._explicit_units = bytes_per_unit is not None
        self.load: Dict[int, float] = defaultdict(float)
        self._base_id: Optional[int] = None
        self._nodes: Tuple[int, ...] = ()

    # -- lifecycle ----------------------------------------------------------
    def attach(self, simulator) -> None:
        from repro.network.traffic import TrafficAccounting

        if not self._explicit_units:
            self.bytes_per_unit = (
                simulator.stats.accounting is TrafficAccounting.BYTES
            )
        topology = simulator.topology
        self._base_id = topology.base_id
        self._nodes = tuple(topology.node_ids)
        for node_id in self._nodes:
            self.load.setdefault(node_id, 0.0)

    def _units(self, size_bytes) -> float:
        return float(size_bytes) if self.bytes_per_unit else 1.0

    # -- charge events ------------------------------------------------------
    def charge_transmission(self, node_id, size_bytes, kind,
                            attempts=1, receiver=None) -> None:
        units = self._units(size_bytes)
        self.load[node_id] += units * attempts
        if receiver is not None:
            self.load[receiver] += units

    def charge_path(self, path, size_bytes, kind,
                    attempts=None, num_hops=None) -> None:
        hops = len(path) - 1 if num_hops is None else num_hops
        if hops <= 0:
            return
        units = float(size_bytes) if self.bytes_per_unit else 1.0
        load = self.load
        if attempts is None:
            if hops == 1:  # single radio hop: the most common charge
                load[path[0]] += units
                load[path[1]] += units
                return
            previous = path[0]
            for index in range(1, hops + 1):
                node = path[index]
                load[previous] += units
                load[node] += units
                previous = node
        else:
            previous = path[0]
            for index in range(1, hops + 1):
                node = path[index]
                load[previous] += units * int(attempts[index - 1])
                load[node] += units
                previous = node

    def charge_paths_batch(self, batch) -> None:
        """Array-level charge of a whole cycle's paths (batch kernel).

        Mirrors ``TrafficStats.at_node``'s arithmetic (transmitted units,
        including retransmission attempts, plus received units) as one
        ``np.bincount`` fold into the public ``load`` dictionary per cycle.
        """
        if batch.senders.size == 0:
            return
        counts, attempts = batch.counts, batch.attempts
        sends = counts if attempts is None else (
            attempts if counts is None else attempts * counts)
        if self.bytes_per_unit:
            rx_weights: Optional[np.ndarray] = (
                batch.sizes if counts is None else batch.sizes * counts)
            tx_weights = (
                batch.sizes if sends is None else batch.sizes * sends
            )
        else:
            rx_weights = None if counts is None else counts.astype(np.float64)
            tx_weights = (
                None if sends is None else sends.astype(np.float64)
            )
        tx_counts = np.bincount(batch.senders, weights=tx_weights)
        rx_counts = np.bincount(batch.receivers, weights=rx_weights)
        delta = np.zeros(
            max(tx_counts.shape[0], rx_counts.shape[0]), dtype=np.float64
        )
        delta[:tx_counts.shape[0]] += tx_counts
        delta[:rx_counts.shape[0]] += rx_counts
        load = self.load
        nonzero = np.flatnonzero(delta)
        values = delta[nonzero]
        for node_id, value in zip(nonzero.tolist(), values.tolist()):
            load[node_id] += value

    def charge_broadcast(self, node_id, size_bytes, kind, receivers) -> None:
        units = self._units(size_bytes)
        self.load[node_id] += units
        load = self.load
        for receiver in receivers:
            load[receiver] += units

    # -- results ------------------------------------------------------------
    def top(self, k: Optional[int] = None) -> List[Tuple[int, float]]:
        """The *k* most loaded nodes, ordered by decreasing load.

        Equal loads rank by ascending node id (the same charge-order-free
        tie-break as ``TrafficStats.top_loaded_nodes``).
        """
        ranked = sorted(self.load.items(), key=lambda item: (-item[1], item[0]))
        return ranked[: (k if k is not None else self.top_k)]

    def max_load(self) -> float:
        return max(self.load.values(), default=0.0)

    def gini(self) -> float:
        """Load imbalance across battery-powered (non-base) nodes."""
        return gini_coefficient([
            load for node_id, load in self.load.items()
            if node_id != self._base_id
        ])

    def summary(self) -> Dict[str, float]:
        top = self.top(1)
        return {
            "hotspot_max_load": self.max_load(),
            "hotspot_max_node": float(top[0][0]) if top else -1.0,
            "hotspot_gini": self.gini(),
        }

    def node_series(self) -> Dict[str, Dict[int, float]]:
        return {"load": dict(self.load)}
