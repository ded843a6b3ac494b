"""Geographic Hash Table routing over GPSR (mote networks).

GHT [13] hashes a key to a geographic location and stores/retrieves data at
the *home node*: the node closest to that location, found by GPSR greedy
geographic forwarding with perimeter-mode fallback.  The paper uses GHT both
as a grouped join strategy (all tuples with the same join key meet at the
key's home node) and as a path-quality baseline (Appendix C, "GPSR" bars).

The home node's placement ignores locality entirely, which is why GHT-based
joins route over long, unpredictable paths (Section 2.2, Section 4.2).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.network.topology import Topology
from repro.routing.paths import concatenate_paths, strip_cycles

_HASH_MASK = (1 << 32) - 1


def _hash_key(key: Any) -> int:
    """Deterministic 32-bit hash (Python's ``hash`` is salted per process)."""
    data = repr(key).encode("utf-8")
    value = 2166136261
    for byte in data:
        value ^= byte
        value = (value * 16777619) & _HASH_MASK
    return value


class GHTSubstrate:
    """Geographic hashing with greedy (GPSR-style) forwarding."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        xs = [node.position[0] for node in topology.nodes.values()]
        ys = [node.position[1] for node in topology.nodes.values()]
        self._bounds = (min(xs), min(ys), max(xs), max(ys))
        #: key -> (routing epoch, home node); invalidated by failures/mobility.
        self._home_cache: Dict[Any, Tuple[int, int]] = {}
        #: (routing epoch, xs, ys) position arrays for the vectorized scan.
        self._pos_cache: Optional[Tuple[int, np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    def hash_location(self, key: Any) -> Tuple[float, float]:
        """Map a key to a location inside the deployment's bounding box."""
        xmin, ymin, xmax, ymax = self._bounds
        h = _hash_key(key)
        fx = (h & 0xFFFF) / 0xFFFF
        fy = ((h >> 16) & 0xFFFF) / 0xFFFF
        return (xmin + fx * (xmax - xmin), ymin + fy * (ymax - ymin))

    def home_node(self, key: Any) -> int:
        """The alive node closest to the key's hash location.

        Memoized per key against the topology's routing epoch, so repeated
        routes to the same key skip the full node scan until a failure or a
        move changes the deployment.
        """
        epoch = self.topology.routing_epoch
        cached = self._home_cache.get(key)
        if cached is not None and cached[0] == epoch:
            return cached[1]
        location = self.hash_location(key)
        home = self._closest_alive_node(location)
        self._home_cache[key] = (epoch, home)
        return home

    def _closest_alive_node(self, location: Tuple[float, float]) -> int:
        """Vectorized closest-alive-node scan; ties go to the lowest id.

        Squared distances order candidates; the handful of nodes within a
        relative whisker of the minimum are re-ranked by the Euclidean
        distance itself, so a rounding collision in ``** 0.5`` picks the
        same node as a scalar ``min`` over ascending ids would.
        """
        epoch = self.topology.routing_epoch
        pos = self._pos_cache
        if pos is None or pos[0] != epoch:
            num_nodes = len(self.topology.nodes)
            xs = np.empty(num_nodes, dtype=np.float64)
            ys = np.empty(num_nodes, dtype=np.float64)
            for node_id, node in self.topology.nodes.items():
                xs[node_id], ys[node_id] = node.position
            pos = (epoch, xs, ys)
            self._pos_cache = pos
        _, xs, ys = pos
        d2 = (xs - location[0]) ** 2 + (ys - location[1]) ** 2
        d2 = np.where(self.topology.routing_cache.alive_mask, d2, np.inf)
        closest = float(d2.min())
        if not np.isfinite(closest):
            raise RuntimeError("no alive nodes")
        near = np.flatnonzero(d2 <= closest * (1.0 + 1e-12))
        if near.size == 1:
            return int(near[0])
        return min(near.tolist(), key=lambda nid: self._distance_to(nid, location))

    def _distance_to(self, node_id: int, location: Tuple[float, float]) -> float:
        x, y = self.topology.nodes[node_id].position
        return ((x - location[0]) ** 2 + (y - location[1]) ** 2) ** 0.5

    # ------------------------------------------------------------------
    def greedy_route(self, source: int, key: Any) -> List[int]:
        """GPSR route from *source* to the key's home node.

        Greedy geographic forwarding chooses, at each hop, the neighbour
        closest to the hash location.  When greedy forwarding reaches a local
        minimum short of the home node, perimeter mode takes over; we model
        the perimeter walk as the shortest detour from the stuck node to the
        home node (counting its hops), which matches GPSR's behaviour of
        hugging the face boundary until greedy progress resumes.
        """
        location = self.hash_location(key)
        home = self.home_node(key)
        path = [source]
        current = source
        visited = {source}
        while current != home:
            neighbours = [
                n for n in self.topology.neighbors(current) if n not in visited
            ]
            if not neighbours:
                break
            best = min(neighbours, key=lambda n: self._distance_to(n, location))
            if self._distance_to(best, location) >= self._distance_to(current, location):
                break  # local minimum: switch to perimeter mode
            path.append(best)
            visited.add(best)
            current = best
        if current != home:
            detour = self.topology.shortest_path(current, home)
            if detour is None:
                raise ValueError(f"home node {home} unreachable from {source}")
            path = concatenate_paths(path, detour)
        return strip_cycles(path)

    def rendezvous_route(self, source: int, target: int, key: Any) -> List[int]:
        """Path from *source* to *target* via the key's home node."""
        to_home = self.greedy_route(source, key)
        from_home = list(reversed(self.greedy_route(target, key)))
        return strip_cycles(concatenate_paths(to_home, from_home))

    # ------------------------------------------------------------------
    def paths_for_pairs(
        self, pairs, key_of=None
    ) -> Dict[Tuple[int, int], List[int]]:
        """Per-pair rendezvous paths (used for the Appendix C comparison)."""
        out: Dict[Tuple[int, int], List[int]] = {}
        for source, target in pairs:
            key = key_of((source, target)) if key_of else (source, target)
            out[(source, target)] = self.rendezvous_route(source, target, key)
        return out
