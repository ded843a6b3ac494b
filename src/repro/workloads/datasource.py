"""Deterministic synthetic data sources.

The evaluation controls three knobs (Section 4.1, Table 1):

* the producer rates ``sigma_s`` / ``sigma_t`` -- the probability that an
  S / T node's dynamic selection predicate is satisfied in a sampling cycle,
* the join selectivity ``sigma_st`` -- the probability that two sent values
  join, realized by drawing ``u`` uniformly from ``ceil(1/sigma_st)`` values,
* optional per-node overrides (the Sel1/Sel2 spatial-skew experiment) and a
  mid-run switch (the temporal-drift experiment).

The data source exposes those knobs directly: the query's dynamic selection
is the fixed predicate ``adc0 < 500`` and the data source sets ``adc0`` below
or above the threshold with the configured per-node probability.  This keeps
the realized selectivities exactly at their nominal values, which the paper's
figures require ("data has sigma_s:sigma_t selectivities").  The paper's
literal ``hash(u) % k = 0`` producer filters are available in
:data:`repro.workloads.queries.PAPER_QUERY_SQL` for completeness.

All values are deterministic functions of (seed, node, cycle) so repeated
runs and different algorithms see identical data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

SEND_THRESHOLD = 500  # queries use "adc0 < 500" as the dynamic selection
_SEND_RANGE = 1000

_MASK64 = (1 << 64) - 1


def _mix(*parts: int) -> int:
    """SplitMix64-style deterministic mixing of integer coordinates."""
    value = 0x9E3779B97F4A7C15
    for part in parts:
        value = (value ^ (part & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        value ^= value >> 27
        value = (value * 0x94D049BB133111EB) & _MASK64
        value ^= value >> 31
    return value


def _uniform(seed: int, node: int, cycle: int, stream: int, modulo: int) -> int:
    if modulo <= 0:
        raise ValueError("modulo must be positive")
    return _mix(seed, node, cycle, stream) % modulo


_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def _mix_step(value: np.ndarray, part) -> np.ndarray:
    """One round of :func:`_mix` over arrays (64-bit wrapping arithmetic)."""
    value = (value ^ part) * _M1
    value ^= value >> _S27
    value *= _M2
    value ^= value >> _S31
    return value


def _mix_prefix(seed: int, nodes: np.ndarray) -> np.ndarray:
    """The state of :func:`_mix` after the (seed, node) coordinates: the
    cycle-independent half of every draw for a node set."""
    value = np.full(nodes.shape, 0x9E3779B97F4A7C15, dtype=np.uint64)
    value = _mix_step(value, np.uint64(seed & _MASK64))
    return _mix_step(value, nodes.astype(np.uint64))


_STREAMS = np.array([[[1]], [[2]]], dtype=np.uint64)  # send draw, u draw


def _mix_streams(prefix: np.ndarray, cycles: np.ndarray) -> np.ndarray:
    """Finish :func:`_mix` for streams 1 and 2 at once over a ``[cycle, 1]``
    column: ``[stream, cycle, node]``, identical to ``_mix(seed, node, cycle,
    stream)`` element by element."""
    return _mix_step(_mix_step(prefix, cycles), _STREAMS)


@dataclass
class SyntheticDataSource:
    """Synthetic dynamic attributes for Queries 0-2.

    Parameters
    ----------
    sigma_st:
        Default join selectivity; ``u`` is drawn from ``ceil(1/sigma_st)``
        values so two independent draws collide with probability sigma_st.
    send_probability:
        Default probability that a node's ``adc0 < 500`` selection holds in a
        cycle (i.e. the node's producer rate sigma_p).
    per_node_send_probability / per_node_u_range:
        Per-node overrides for the spatial-skew experiment (Section 6.1).
    switch_cycle / switched:
        If set, from ``switch_cycle`` onwards the ``switched`` data source's
        parameters take over (temporal-drift experiment).  ``switched`` may
        switch again: a phase schedule chains its regimes this way.
    """

    sigma_st: float = 0.2
    send_probability: float = 1.0
    seed: int = 0
    per_node_send_probability: Dict[int, float] = field(default_factory=dict)
    per_node_u_range: Dict[int, int] = field(default_factory=dict)
    switch_cycle: Optional[int] = None
    switched: Optional["SyntheticDataSource"] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma_st <= 1.0:
            raise ValueError("sigma_st must be in (0, 1]")
        if not 0.0 <= self.send_probability <= 1.0:
            raise ValueError("send_probability must be in [0, 1]")
        self.u_range = max(1, math.ceil(1.0 / self.sigma_st))

    # ------------------------------------------------------------------
    def _effective(self, cycle: int) -> "SyntheticDataSource":
        """The source whose regime *cycle* falls in: the chain of
        ``switched`` sources followed past every switch at or before it."""
        source = self
        while (source.switched is not None and source.switch_cycle is not None
               and cycle >= source.switch_cycle):
            source = source.switched
        return source

    def next_switch(self, cycle: int) -> Optional[int]:
        """The first cycle after *cycle* at which :meth:`_effective` changes
        source, anywhere along the chain; ``None`` when none follows."""
        source, boundary = self, None
        while source.switched is not None and source.switch_cycle is not None:
            # a later regime cannot start before the one it follows
            if boundary is None or source.switch_cycle > boundary:
                boundary = source.switch_cycle
            if boundary > cycle:
                return boundary
            source = source.switched
        return None

    def send_probability_for(self, node_id: int) -> float:
        return self.per_node_send_probability.get(node_id, self.send_probability)

    def u_range_for(self, node_id: int) -> int:
        return self.per_node_u_range.get(node_id, self.u_range)

    def sample(self, node_id: int, cycle: int) -> Dict[str, Any]:
        source = self._effective(cycle)
        send_prob = source.send_probability_for(node_id)
        send_draw = _uniform(source.seed, node_id, cycle, 1, _SEND_RANGE)
        sends = send_draw < send_prob * _SEND_RANGE
        if sends:
            adc0 = send_draw % SEND_THRESHOLD
        else:
            adc0 = SEND_THRESHOLD + (send_draw % SEND_THRESHOLD)
        u_value = _uniform(source.seed, node_id, cycle, 2, source.u_range_for(node_id))
        return {"u": u_value, "adc0": adc0, "v": 0}

    def sample_columns(self, node_ids: Sequence[int],
                       cycles: Union[int, range]) -> Dict[str, np.ndarray]:
        """Vectorized :meth:`sample` over many nodes, for one cycle or a block.

        An int *cycles* gives one int64 ``[node]`` array per attribute, a
        range one ``[cycle, node]`` array, holding exactly the values
        :meth:`sample` would return for each cycle and entry of *node_ids*
        (the SplitMix64 draws are computed batched with 64-bit wrapping
        arithmetic, a block in one pass; a block that crosses switches is
        drawn in one part per regime).  Callers must not mutate the arrays.
        """
        if isinstance(cycles, int):
            column = np.array([[cycles & _MASK64]], dtype=np.uint64)
            return {a: values[0] for a, values in
                    self._effective(cycles)._columns(node_ids, column).items()}
        switch = self.next_switch(cycles.start)
        if switch is not None and switch < cycles.stop:
            early = self.sample_columns(node_ids, range(cycles.start, switch))
            late = self.sample_columns(node_ids, range(switch, cycles.stop))
            return {a: np.concatenate([early[a], late[a]]) for a in early}
        column = np.array([c & _MASK64 for c in cycles], dtype=np.uint64)[:, None]
        return self._effective(cycles.start)._columns(node_ids, column)

    def _columns(self, node_ids: Sequence[int],
                 cycles: np.ndarray) -> Dict[str, np.ndarray]:
        """This source's ``[cycle, node]`` columns for a ``[cycle, 1]``
        column of cycles."""
        key = tuple(node_ids)
        arrays_cache = self.__dict__.setdefault("_node_arrays", {})
        arrays = arrays_cache.get(key)
        if arrays is None:
            u_ranges = [self.u_range_for(int(n)) for n in node_ids]
            if any(r <= 0 for r in u_ranges):
                raise ValueError("modulo must be positive")  # match sample()
            arrays = (
                _mix_prefix(self.seed, np.array(key, dtype=np.int64)),
                np.array(
                    [self.send_probability_for(int(n)) for n in node_ids],
                    dtype=float,
                ) * _SEND_RANGE,
                np.array(u_ranges, dtype=np.uint64),
            )
            arrays_cache[key] = arrays
        prefix, send_threshold, u_range = arrays
        zeros = np.zeros((cycles.shape[0], len(key)), dtype=np.int64)
        if prefix.size == 0:
            return {"u": zeros, "adc0": zeros, "v": zeros}
        send_mix, u_mix = _mix_streams(prefix, cycles)
        send_draw = (send_mix % np.uint64(_SEND_RANGE)).astype(np.int64)
        half = send_draw % SEND_THRESHOLD
        adc0 = np.where(send_draw < send_threshold, half, SEND_THRESHOLD + half)
        return {"u": (u_mix % u_range).astype(np.int64), "adc0": adc0, "v": zeros}

    def sample_many(
        self, node_ids: Sequence[int], cycle: int
    ) -> List[Dict[str, Any]]:
        """:meth:`sample_columns` as the per-node dictionaries :meth:`sample`
        would produce, one list entry per entry of *node_ids*."""
        columns = self.sample_columns(node_ids, cycle)
        return [
            {"u": u, "adc0": adc0, "v": 0}
            for u, adc0 in zip(columns["u"].tolist(), columns["adc0"].tolist())
        ]


def build_send_probability_map(
    source_nodes, target_nodes, sigma_s: float, sigma_t: float
) -> Dict[int, float]:
    """Per-node send probabilities given each relation's eligible producers.

    A node eligible for both relations gets the larger of the two rates (the
    paper's relation memberships are disjoint, so this is a corner case).
    """
    mapping: Dict[int, float] = {}
    for node_id in source_nodes:
        mapping[node_id] = sigma_s
    for node_id in target_nodes:
        mapping[node_id] = max(mapping.get(node_id, 0.0), sigma_t)
    return mapping
