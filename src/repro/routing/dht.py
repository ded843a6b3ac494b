"""Distributed-hash-table routing for 802.11 mesh networks.

On mesh networks the paper replaces GHT with a DHT (Pastry-like [14]): the
home node for a key is the node whose hashed identifier is closest to the
hashed key on a circular id space.  Messages then travel over the physical
multi-hop network to that home node.  Appendix C notes the consequences we
reproduce: DHT paths are slightly shorter than GPSR's (no perimeter-mode
boundary walks) but the hash placement still ignores locality, so maximum
node load increases.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.network.topology import Topology
from repro.routing.paths import concatenate_paths, strip_cycles

_ID_SPACE = 1 << 32


def _stable_hash(value: Any) -> int:
    data = repr(value).encode("utf-8")
    acc = 2166136261
    for byte in data:
        acc ^= byte
        acc = (acc * 16777619) % _ID_SPACE
    return acc


class DHTSubstrate:
    """Hash-space routing over the physical mesh topology."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._node_hashes: Dict[int, int] = {
            node_id: _stable_hash(("node", node_id))
            for node_id in topology.node_ids
        }
        #: key -> (routing epoch, home node); invalidated by failures/mobility.
        self._home_cache: Dict[Any, Tuple[int, int]] = {}
        self._hash_array: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def key_hash(self, key: Any) -> int:
        return _stable_hash(("key", key))

    def home_node(self, key: Any) -> int:
        """Alive node whose hashed id is nearest the hashed key on the ring.

        Memoized per key against the topology's routing epoch (failures and
        mobility bump the epoch and re-trigger the scan).
        """
        epoch = self.topology.routing_epoch
        cached = self._home_cache.get(key)
        if cached is not None and cached[0] == epoch:
            return cached[1]
        key_hash = self.key_hash(key)
        # Pure-integer ring distances: argmin takes the first minimum, so
        # ties go to the lowest id.
        hashes = self._hash_array
        if hashes is None:
            hashes = np.asarray(
                [self._node_hashes[nid] for nid in range(len(self._node_hashes))],
                dtype=np.int64,
            )
            self._hash_array = hashes
        diff = np.abs(hashes - key_hash)
        ring = np.minimum(diff, _ID_SPACE - diff)
        ring = np.where(self.topology.routing_cache.alive_mask, ring, _ID_SPACE)
        if int(ring.min()) >= _ID_SPACE:
            raise RuntimeError("no alive nodes")
        home = int(np.argmin(ring))
        self._home_cache[key] = (epoch, home)
        return home

    def route(self, source: int, key: Any) -> List[int]:
        """Physical route from *source* to the key's home node."""
        home = self.home_node(key)
        path = self.topology.shortest_path(source, home)
        if path is None:
            raise ValueError(f"home node {home} unreachable from {source}")
        return path

    def rendezvous_route(self, source: int, target: int, key: Any) -> List[int]:
        """Path from *source* to *target* via the key's home node."""
        to_home = self.route(source, key)
        from_home = list(reversed(self.route(target, key)))
        return strip_cycles(concatenate_paths(to_home, from_home))

    # ------------------------------------------------------------------
    def paths_for_pairs(
        self, pairs, key_of=None
    ) -> Dict[Tuple[int, int], List[int]]:
        out: Dict[Tuple[int, int], List[int]] = {}
        for source, target in pairs:
            key = key_of((source, target)) if key_of else (source, target)
            out[(source, target)] = self.rendezvous_route(source, target, key)
        return out
