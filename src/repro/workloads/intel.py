"""Synthetic Intel-Research-Berkeley-lab humidity workload for Query 3.

The paper's Query 3 runs on the Intel lab dataset: 54 motes in an office
floor reporting (among other things) humidity, with producers generating
65535 ``v`` samples.  We cannot ship the original trace, so this module
generates a statistically similar one (see DESIGN.md): each node's humidity
follows a shared diurnal baseline plus a spatially correlated offset (nodes
near a window / the corridor read differently than interior nodes) plus an
AR(1) noise term.  Values are scaled to the 16-bit raw-ADC-like range the
query's ``abs(S.v - T.v) > 1000`` threshold implies.

What matters for the reproduction is that (a) neighbouring nodes are
correlated, so the region join's dynamic predicate has locally varying
selectivity, and (b) the trace drifts over time, which exercises the adaptive
learner exactly as the paper describes (join nodes migrate from the base
station into the network as estimates become available).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.network.topology import Topology
from repro.workloads.datasource import SEND_THRESHOLD

#: Scale of the synthetic raw humidity values (16-bit style, like the paper's
#: 65535-sample traces).
V_SCALE = 65535.0


@dataclass
class IntelDataSource:
    """Humidity-like dynamic values over an Intel-lab-shaped deployment."""

    topology: Topology
    seed: int = 0
    diurnal_period: int = 400
    noise_scale: float = 250.0
    spatial_scale: float = 3000.0
    ar_coefficient: float = 0.9
    send_probability: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.ar_coefficient < 1.0:
            raise ValueError("ar_coefficient must be in [0, 1)")
        rng = np.random.default_rng(self.seed)
        xs = np.array([self.topology.nodes[n].position[0] for n in self.topology.node_ids])
        ys = np.array([self.topology.nodes[n].position[1] for n in self.topology.node_ids])
        span_x = max(xs.max() - xs.min(), 1e-9)
        span_y = max(ys.max() - ys.min(), 1e-9)
        # Spatially correlated per-node offsets: a smooth gradient across the
        # lab plus small node-specific bias.
        self._offset: Dict[int, float] = {}
        for index, node_id in enumerate(self.topology.node_ids):
            gradient = (
                (xs[index] - xs.min()) / span_x * 0.6
                + (ys[index] - ys.min()) / span_y * 0.4
            )
            bias = float(rng.normal(0.0, 0.05))
            self._offset[node_id] = (gradient + bias) * self.spatial_scale
        # Per-node AR(1) noise values, cached per cycle so a reading is a pure
        # function of (node, cycle) no matter in which order cycles are asked
        # for (several algorithms replay the same trace).
        self._noise_cache: Dict[int, list] = {n: [] for n in self.topology.node_ids}
        self._send_rng_seed = self.seed + 2

    # ------------------------------------------------------------------
    def _baseline(self, cycle: int) -> float:
        phase = 2.0 * math.pi * (cycle % self.diurnal_period) / self.diurnal_period
        return 0.45 * V_SCALE + 0.10 * V_SCALE * math.sin(phase)

    def _noise(self, node_id: int, cycle: int) -> float:
        """AR(1) noise, extended lazily and cached per (node, cycle)."""
        cache = self._noise_cache[node_id]
        while len(cache) <= cycle:
            step_index = len(cache)
            step_rng = np.random.default_rng(
                (self.seed * 1_000_003 + node_id * 7919 + step_index) & 0xFFFFFFFF
            )
            previous = cache[-1] if cache else 0.0
            cache.append(
                self.ar_coefficient * previous
                + step_rng.normal(0.0, self.noise_scale)
            )
        return cache[cycle]

    def humidity(self, node_id: int, cycle: int) -> int:
        value = self._baseline(cycle) + self._offset[node_id] + self._noise(node_id, cycle)
        return int(min(V_SCALE, max(0.0, value)))

    def next_switch(self, cycle: int) -> Optional[int]:
        """The trace has one regime: no switch follows *cycle*."""
        return None

    def sample_columns(self, node_ids: Sequence[int],
                       cycles: Union[int, range]) -> Dict[str, np.ndarray]:
        """Every node's readings for one cycle or a block of cycles.

        An int *cycles* gives one int64 ``[node]`` array per attribute, a
        range one ``[cycle, node]`` array.  ``v`` and ``humidity`` are
        :meth:`humidity` (baseline + offset + noise, in that order, then
        clipped); ``adc0`` is a hash of (node, cycle) that puts it below
        ``SEND_THRESHOLD`` with probability ``send_probability``.
        """
        block = range(cycles, cycles + 1) if isinstance(cycles, int) else cycles
        nodes = [int(n) for n in node_ids]
        for node_id in nodes:
            self._noise(node_id, block.stop - 1)   # extend the AR(1) caches
        noise = np.array(
            [self._noise_cache[n][block.start:block.stop] for n in nodes], dtype=float
        ).reshape(len(nodes), len(block)).T
        baseline = np.array([self._baseline(c) for c in block], dtype=float)
        offset = np.array([self._offset[n] for n in nodes], dtype=float)
        value = baseline[:, None] + offset[None, :] + noise
        humidity = np.minimum(V_SCALE, np.maximum(0.0, value)).astype(np.int64)
        # (a + b) % m == (a % m + b % m) % m keeps the hash in small ints.
        node_hash = np.array(
            [(n * 2654435761 + self._send_rng_seed) % 1000 for n in nodes], dtype=np.int64
        )
        cycle_hash = np.array([c * 40503 % 1000 for c in block], dtype=np.int64)
        send_hash = (cycle_hash[:, None] + node_hash[None, :]) % 1000
        half = send_hash % SEND_THRESHOLD
        adc0 = np.where(send_hash < self.send_probability * 1000,
                        half, SEND_THRESHOLD + half)
        columns = {"v": humidity, "humidity": humidity,
                   "u": np.zeros_like(humidity), "adc0": adc0}
        if isinstance(cycles, int):
            return {a: values[0] for a, values in columns.items()}
        return columns


def measure_dynamic_join_selectivity(
    data_source: IntelDataSource,
    topology: Topology,
    radius_m: float = 5.0,
    difference_threshold: int = 1000,
    cycles: int = 50,
) -> float:
    """Empirical sigma_st of Query 3's dynamic predicate on this trace."""
    pairs = []
    ids = topology.node_ids
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if topology.distance(a, b) <= radius_m:
                pairs.append((a, b))
    if not pairs:
        return 0.0
    joined = 0
    total = 0
    for cycle in range(cycles):
        for a, b in pairs:
            va = data_source.humidity(a, cycle)
            vb = data_source.humidity(b, cycle)
            total += 1
            if abs(va - vb) > difference_threshold:
                joined += 1
    return joined / total if total else 0.0
