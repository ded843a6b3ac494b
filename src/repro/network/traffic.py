"""Traffic accounting: the paper's primary evaluation metric.

Every figure in the evaluation reports one of three quantities:

* total traffic across the network (bytes on motes, messages on mesh),
* traffic at the base station (congestion at the sink),
* per-node load, in particular the most loaded nodes (Figure 5) and the
  maximum node load (Figure 13, Figure 16b).

:class:`TrafficStats` collects all of them.  :class:`TrafficAccounting`
selects whether a "unit" is a byte (mote mode) or a message (mesh mode,
Appendix F).
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.message import MessageKind


class TrafficAccounting(Enum):
    """What a traffic unit means."""

    BYTES = "bytes"
    MESSAGES = "messages"


class TrafficStats:
    """Per-node and aggregate transmission counters.

    Also the default sink of the metrics pipeline: the ``charge_*`` methods
    double as the pipeline's event signatures, so the simulator's charge
    points feed this object directly (one event per flyweight path charge)
    while additional sinks observe the same events.

    Batched charges (the ``charge_paths_batch`` event of the batch-cycle
    kernel) accumulate lazily in dense per-node numpy arrays and are folded
    into the per-node dictionaries on first read -- the :attr:`transmitted`
    and :attr:`received` properties drain them, so every reader (including
    direct dictionary access) always observes up-to-date counts.  Traffic
    units are integer-valued, so the array arithmetic is bit-identical to
    per-hop charging regardless of accumulation order.
    """

    #: Sink identifier on the metrics pipeline.
    name = "traffic"

    def __init__(self,
                 accounting: TrafficAccounting = TrafficAccounting.BYTES
                 ) -> None:
        self.accounting = accounting
        self._transmitted: Dict[int, float] = defaultdict(float)
        self._received: Dict[int, float] = defaultdict(float)
        self.by_kind: Dict[MessageKind, float] = defaultdict(float)
        self.messages_sent = 0
        self.messages_dropped = 0
        self._pending_tx: Optional[np.ndarray] = None
        self._pending_rx: Optional[np.ndarray] = None
        self._pending_dirty = False

    # -- per-node views (draining any pending batched charges) ---------------
    @property
    def transmitted(self) -> Dict[int, float]:
        """Per-node transmitted units (live dictionary)."""
        if self._pending_dirty:
            self._drain()
        return self._transmitted

    @property
    def received(self) -> Dict[int, float]:
        """Per-node received units (live dictionary)."""
        if self._pending_dirty:
            self._drain()
        return self._received

    def _drain(self) -> None:
        self._pending_dirty = False
        for pending, target in ((self._pending_tx, self._transmitted),
                                (self._pending_rx, self._received)):
            if pending is None:
                continue
            nonzero = np.flatnonzero(pending)
            if nonzero.size:
                values = pending[nonzero]
                for node_id, value in zip(nonzero.tolist(), values.tolist()):
                    target[node_id] += value
                pending[nonzero] = 0.0

    def _accumulate(self, tx_counts: np.ndarray, rx_counts: np.ndarray) -> None:
        size = max(tx_counts.shape[0], rx_counts.shape[0])
        if self._pending_tx is None or self._pending_tx.shape[0] < size:
            grown = max(size, 2 * (0 if self._pending_tx is None
                                   else self._pending_tx.shape[0]))
            for attr in ("_pending_tx", "_pending_rx"):
                fresh = np.zeros(grown, dtype=np.float64)
                old = getattr(self, attr)
                if old is not None:
                    fresh[:old.shape[0]] = old
                setattr(self, attr, fresh)
        self._pending_tx[:tx_counts.shape[0]] += tx_counts
        self._pending_rx[:rx_counts.shape[0]] += rx_counts
        self._pending_dirty = True

    # -- charge events -------------------------------------------------------
    def charge_transmission(
        self,
        node_id: int,
        size_bytes: int,
        kind: MessageKind,
        attempts: int = 1,
        receiver: Optional[int] = None,
    ) -> None:
        """Record *attempts* transmissions of a message by *node_id*."""
        units = self._units(size_bytes) * attempts
        self._transmitted[node_id] += units
        self.by_kind[kind] += units
        self.messages_sent += attempts
        if receiver is not None:
            self._received[receiver] += self._units(size_bytes)

    def charge_path(
        self,
        path: "Sequence[int]",
        size_bytes: int,
        kind: MessageKind,
        attempts=None,
        num_hops: Optional[int] = None,
    ) -> None:
        """Charge a message crossing consecutive hops of *path* in one call.

        Flyweight equivalent of calling :meth:`charge_transmission` once per
        hop: ``path[i]`` transmits to ``path[i + 1]`` for the first
        ``num_hops`` hops (default: the whole path).  *attempts* is an
        optional per-hop transmission count (from
        :meth:`~repro.network.links.LinkModel.attempt_hops`); without it every
        hop is a single transmission.  Traffic units are integer-valued, so
        the aggregate arithmetic is bit-identical to per-hop charging.
        """
        hops = len(path) - 1 if num_hops is None else num_hops
        if hops <= 0:
            return
        # Inline unit conversion (must mirror _units): a method call per
        # charge is measurable on transfer-heavy sweeps.
        units = (
            float(size_bytes)
            if self.accounting is TrafficAccounting.BYTES
            else 1.0
        )
        transmitted = self._transmitted
        received = self._received
        if attempts is None:
            if hops == 1:  # single radio hop: the most common charge
                transmitted[path[0]] += units
                received[path[1]] += units
                self.by_kind[kind] += units
                self.messages_sent += 1
                return
            for index in range(hops):
                transmitted[path[index]] += units
                received[path[index + 1]] += units
            self.by_kind[kind] += units * hops
            self.messages_sent += hops
        else:
            total_attempts = 0
            for index in range(hops):
                hop_attempts = int(attempts[index])
                transmitted[path[index]] += units * hop_attempts
                received[path[index + 1]] += units
                total_attempts += hop_attempts
            self.by_kind[kind] += units * total_attempts
            self.messages_sent += total_attempts

    def charge_paths_batch(self, batch) -> None:
        """Array-level charge of a whole block's paths (batch kernel).

        Equivalent to the per-path :meth:`charge_path` / :meth:`charge_drop`
        calls the per-tuple reference makes for the same ships: each charged
        hop is weighted by its message count (``batch.counts``) and, for
        transmissions, its link attempts (``batch.attempts``); per-node
        counts accumulate via ``np.bincount`` into the pending arrays, and
        per-kind and message counters update from the same weights.
        ``batch.drops`` adds to the dropped messages.  Bit-identical because
        every addend is an integer-valued float.
        """
        senders = batch.senders
        if senders.size:
            counts, attempts = batch.counts, batch.attempts
            # transmissions per hop: messages times link attempts
            sends = counts if attempts is None else (
                attempts if counts is None else attempts * counts)
            if self.accounting is TrafficAccounting.BYTES:
                rx_weights: Optional[np.ndarray] = (
                    batch.sizes if counts is None else batch.sizes * counts)
                tx_weights = (
                    batch.sizes if sends is None else batch.sizes * sends
                )
            else:
                rx_weights = (None if counts is None
                              else counts.astype(np.float64))
                tx_weights = (
                    None if sends is None else sends.astype(np.float64)
                )
            self._accumulate(
                np.bincount(senders, weights=tx_weights).astype(
                    np.float64, copy=False),
                np.bincount(batch.receivers, weights=rx_weights).astype(
                    np.float64, copy=False),
            )
            per_kind = np.bincount(
                batch.kind_codes, weights=tx_weights,
                minlength=len(batch.kinds),
            )
            for code, kind in enumerate(batch.kinds):
                self.by_kind[kind] += float(per_kind[code])
            self.messages_sent += (
                int(sends.sum()) if sends is not None else int(senders.size)
            )
        if batch.drops:
            self.messages_dropped += batch.drops

    def charge_broadcast(
        self,
        node_id: int,
        size_bytes: int,
        kind: MessageKind,
        receivers: "Sequence[int]",
    ) -> None:
        """One local broadcast: a single transmission heard by *receivers*."""
        units = self._units(size_bytes)
        self._transmitted[node_id] += units
        self.by_kind[kind] += units
        self.messages_sent += 1
        received = self._received
        for receiver in receivers:
            received[receiver] += units

    def charge_drop(self) -> None:
        self.messages_dropped += 1

    def _units(self, size_bytes: int) -> float:
        if self.accounting is TrafficAccounting.MESSAGES:
            return 1.0
        return float(size_bytes)

    # -- aggregates -----------------------------------------------------------
    def total(self) -> float:
        """Total traffic transmitted across all nodes."""
        return sum(self.transmitted.values())

    def at_node(self, node_id: int) -> float:
        """Traffic transmitted *and* received by one node (its radio load)."""
        return self.transmitted.get(node_id, 0.0) + self.received.get(node_id, 0.0)

    def at_base(self, base_id: int) -> float:
        return self.at_node(base_id)

    def max_node_load(self, exclude: Tuple[int, ...] = ()) -> float:
        node_ids = set(self.transmitted) | set(self.received)
        loads = [self.at_node(n) for n in node_ids if n not in exclude]
        return max(loads, default=0.0)

    def top_loaded_nodes(self, k: int = 15) -> List[Tuple[int, float]]:
        """The *k* most loaded nodes, ordered by decreasing load (Figure 5).

        Equal loads rank by ascending node id so the order depends only on
        the loads themselves, never on charge order (the batch kernel
        replays a cycle's charges grouped by class, not in ship order).
        """
        node_ids = set(self.transmitted) | set(self.received)
        ranked = sorted(
            ((node_id, self.at_node(node_id)) for node_id in node_ids),
            key=lambda item: (-item[1], item[0]),
        )
        return ranked[:k]

    def traffic_by_kind(self) -> Dict[MessageKind, float]:
        return dict(self.by_kind)

    def snapshot(self) -> Dict[str, object]:
        """A flat summary used by the experiment harness.

        Alongside the original keys (kept for compatibility), harness rows
        get ``max_node_load`` and the per-kind ``by_kind`` breakdown directly
        instead of re-deriving them from the per-node dictionaries.
        """
        return {
            "total": self.total(),
            "messages_sent": float(self.messages_sent),
            "messages_dropped": float(self.messages_dropped),
            "max_node_load": self.max_node_load(),
            "by_kind": {kind.value: units for kind, units in self.by_kind.items()},
        }
