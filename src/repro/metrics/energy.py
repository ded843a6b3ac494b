"""Radio energy model and per-node energy accounting sink.

The paper evaluates join strategies through communication cost because in a
sensor network the radio dominates the energy budget: every transmitted and
received byte costs charge, and the first node to exhaust its battery often
ends the deployment's useful life.  :class:`EnergySink` turns the accounting
events the simulator already emits into a per-node energy ledger:

* per-byte transmit and receive costs (retransmissions pay full tx cost,
  a receiver pays once per successfully heard copy -- mirroring the
  traffic-statistics arithmetic exactly),
* a per-sampling-cycle idle cost for every battery-powered node, and
* an optional battery ``capacity_uj``: the cycle at which the first non-base
  node exhausts it is the network **lifetime** (first-node-death metric).

The sink is observational: a battery-dead node keeps relaying in the
simulation (traffic results stay bit-identical with or without the sink);
it merely stops accruing idle cost and is counted in ``energy_dead_nodes``.
The base station is mains-powered: it is charged radio energy (so hotspot
comparisons stay honest) but never idles, dies, or counts toward lifetime.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.metrics.pipeline import MetricsSink


@dataclass(frozen=True)
class EnergyModel:
    """Radio energy costs in microjoules.

    The defaults approximate a mote-class radio where receiving costs about
    half of transmitting and a sampling cycle of idle listening costs a few
    bytes' worth of traffic; they are deliberately round numbers so energy
    figures stay hand-checkable (10 bytes over one hop = 20 uJ tx + 10 uJ rx).
    """

    tx_uj_per_byte: float = 2.0
    rx_uj_per_byte: float = 1.0
    idle_uj_per_cycle: float = 5.0
    #: Battery budget per node; ``None`` disables lifetime tracking.
    capacity_uj: Optional[float] = None


class EnergySink(MetricsSink):
    """Per-node radio energy ledger with first-node-death lifetime."""

    name = "energy"

    def __init__(self, model: Optional[EnergyModel] = None, **overrides) -> None:
        if model is None:
            model = EnergyModel(**overrides)
        elif overrides:
            raise ValueError("give an EnergyModel or field overrides, not both")
        self.model = model
        self.energy: Dict[int, float] = defaultdict(float)
        self._nodes: Tuple[int, ...] = ()
        self._base_id: Optional[int] = None
        self._topology = None
        self._dead: Set[int] = set()
        self.first_death_node: Optional[int] = None
        self.first_death_cycle: Optional[int] = None

    # -- lifecycle ----------------------------------------------------------
    def attach(self, simulator) -> None:
        topology = simulator.topology
        self._topology = topology
        self._nodes = tuple(topology.node_ids)
        self._base_id = topology.base_id
        for node_id in self._nodes:
            self.energy.setdefault(node_id, 0.0)

    # -- charge events ------------------------------------------------------
    def charge_transmission(self, node_id, size_bytes, kind,
                            attempts=1, receiver=None) -> None:
        model = self.model
        self.energy[node_id] += size_bytes * model.tx_uj_per_byte * attempts
        if receiver is not None:
            self.energy[receiver] += size_bytes * model.rx_uj_per_byte

    def charge_path(self, path, size_bytes, kind,
                    attempts=None, num_hops=None) -> None:
        hops = len(path) - 1 if num_hops is None else num_hops
        if hops <= 0:
            return
        model = self.model
        tx = size_bytes * model.tx_uj_per_byte
        rx = size_bytes * model.rx_uj_per_byte
        energy = self.energy
        if attempts is None:
            if hops == 1:  # single radio hop: the most common charge
                energy[path[0]] += tx
                energy[path[1]] += rx
                return
            previous = path[0]
            for index in range(1, hops + 1):
                node = path[index]
                energy[previous] += tx
                energy[node] += rx
                previous = node
        else:
            previous = path[0]
            for index in range(1, hops + 1):
                node = path[index]
                energy[previous] += tx * int(attempts[index - 1])
                energy[node] += rx
                previous = node

    def charge_paths_batch(self, batch) -> None:
        """Array-level charge of a whole cycle's paths (batch kernel).

        Folds ``np.bincount`` per-node deltas into the public ``energy``
        dictionary eagerly (tests and summaries read it directly), one fold
        per cycle -- the same order of work as the per-cycle idle loop.
        """
        model = self.model
        if batch.senders.size == 0:
            return
        sizes = batch.sizes if batch.counts is None else batch.sizes * batch.counts
        tx_weights = sizes * model.tx_uj_per_byte
        if batch.attempts is not None:
            tx_weights = tx_weights * batch.attempts
        tx_counts = np.bincount(batch.senders, weights=tx_weights)
        rx_counts = np.bincount(
            batch.receivers, weights=sizes * model.rx_uj_per_byte
        )
        delta = np.zeros(
            max(tx_counts.shape[0], rx_counts.shape[0]), dtype=np.float64
        )
        delta[:tx_counts.shape[0]] += tx_counts
        delta[:rx_counts.shape[0]] += rx_counts
        energy = self.energy
        nonzero = np.flatnonzero(delta)
        values = delta[nonzero]
        for node_id, value in zip(nonzero.tolist(), values.tolist()):
            energy[node_id] += value

    def charge_broadcast(self, node_id, size_bytes, kind, receivers) -> None:
        model = self.model
        self.energy[node_id] += size_bytes * model.tx_uj_per_byte
        rx = size_bytes * model.rx_uj_per_byte
        energy = self.energy
        for receiver in receivers:
            energy[receiver] += rx

    # -- cycle ticks and lifetime -------------------------------------------
    def on_sampling_cycle(self, cycle: int) -> None:
        idle = self.model.idle_uj_per_cycle
        base_id = self._base_id
        if idle:
            energy = self.energy
            dead = self._dead
            # topology-dead nodes (failure injection) have no radio to idle;
            # without an attached topology every known node is assumed alive
            nodes = self._topology.nodes if self._topology is not None else None
            for node_id in self._nodes or tuple(energy):
                if node_id == base_id or node_id in dead:
                    continue
                if nodes is not None and not nodes[node_id].alive:
                    continue
                energy[node_id] += idle
        self._check_deaths(cycle)

    def _check_deaths(self, cycle: int) -> None:
        capacity = self.model.capacity_uj
        if capacity is None:
            return
        base_id = self._base_id
        dead = self._dead
        for node_id, spent in self.energy.items():
            if node_id == base_id or node_id in dead or spent < capacity:
                continue
            dead.add(node_id)
            if self.first_death_node is None:
                self.first_death_node = node_id
                self.first_death_cycle = cycle

    # -- results ------------------------------------------------------------
    def budget_energies(self) -> Dict[int, float]:
        """Per-node energy of every battery-powered (non-base) node."""
        return {node_id: spent for node_id, spent in self.energy.items()
                if node_id != self._base_id}

    def summary(self) -> Dict[str, float]:
        budget = self.budget_energies()
        total = sum(budget.values())
        count = len(budget)
        max_node, max_energy = -1, 0.0
        for node_id, spent in budget.items():
            if spent > max_energy:
                max_node, max_energy = node_id, spent
        return {
            "energy_total_uj": total,
            "energy_mean_uj": total / count if count else 0.0,
            "energy_max_uj": max_energy,
            "energy_max_node": float(max_node),
            "energy_dead_nodes": float(len(self._dead)),
            # first-node-death network lifetime; -1 = everyone survived
            "energy_lifetime_cycles": (
                float(self.first_death_cycle)
                if self.first_death_cycle is not None else -1.0
            ),
        }

    def node_series(self) -> Dict[str, Dict[int, float]]:
        return {"energy_uj": dict(self.energy)}
