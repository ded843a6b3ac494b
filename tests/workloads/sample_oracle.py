"""Per-node reference samplers: a data source's readings one (node, cycle) at
a time, in plain Python.

Sources sample as columns (``sample_columns``); these scalar definitions are
what the columns are held to, and what the nested-loop result oracle reads.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.network.topology import intel_lab_topology
from repro.workloads import IntelDataSource, SyntheticDataSource
from repro.workloads.datasource import _SEND_RANGE, SEND_THRESHOLD
from repro.workloads.queries import build_query3

_MASK64 = (1 << 64) - 1


def mix(*parts: int) -> int:
    """SplitMix64-style deterministic mixing of integer coordinates."""
    value = 0x9E3779B97F4A7C15
    for part in parts:
        value = (value ^ (part & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        value ^= value >> 27
        value = (value * 0x94D049BB133111EB) & _MASK64
        value ^= value >> 31
    return value


def uniform(seed: int, node: int, cycle: int, stream: int, modulo: int) -> int:
    if modulo <= 0:
        raise ValueError("modulo must be positive")
    return mix(seed, node, cycle, stream) % modulo


def synthetic_sample(source: SyntheticDataSource, node_id: int, cycle: int
                     ) -> Dict[str, Any]:
    source = source._effective(cycle)
    send_prob = source.send_probability_for(node_id)
    send_draw = uniform(source.seed, node_id, cycle, 1, _SEND_RANGE)
    if send_draw < send_prob * _SEND_RANGE:
        adc0 = send_draw % SEND_THRESHOLD
    else:
        adc0 = SEND_THRESHOLD + (send_draw % SEND_THRESHOLD)
    u_value = uniform(source.seed, node_id, cycle, 2, source.u_range_for(node_id))
    return {"u": u_value, "adc0": adc0, "v": 0}


def intel_sample(source: IntelDataSource, node_id: int, cycle: int) -> Dict[str, Any]:
    send_hash = (node_id * 2654435761 + cycle * 40503 + source._send_rng_seed) % 1000
    sends = send_hash < source.send_probability * 1000
    adc0 = send_hash % SEND_THRESHOLD if sends else SEND_THRESHOLD + send_hash % SEND_THRESHOLD
    humidity = source.humidity(node_id, cycle)
    return {"v": humidity, "humidity": humidity, "u": 0, "adc0": adc0}


def sample(source, node_id: int, cycle: int) -> Dict[str, Any]:
    """*source*'s readings of one node in one cycle; a source of the tests'
    own answers through its ``sample`` method."""
    if isinstance(source, SyntheticDataSource):
        return synthetic_sample(source, node_id, cycle)
    if isinstance(source, IntelDataSource):
        return intel_sample(source, node_id, cycle)
    return source.sample(node_id, cycle)


def intel_query3_workload(seed: int = 0):
    """Query 3 on the Intel-lab deployment: topology, humidity trace, query."""
    topology = intel_lab_topology()
    return topology, IntelDataSource(topology=topology, seed=seed), build_query3()
