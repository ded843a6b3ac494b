"""Deployment topologies used in the paper's evaluation.

The paper studies random topologies generated for several deployment
densities (6, 7, 8 and 13 neighbours on average -- "sparse", "moderate",
"medium" and "dense"), a grid topology with roughly 7 neighbours, and a
topology from the Intel Research-Berkeley Lab dataset (Section 4.1,
Appendix C).  This module generates all of them.

Connectivity is derived from node positions via a disc radio model: two nodes
are neighbours iff their Euclidean distance is below the radio range.  For
random topologies the radio range is solved numerically so that the achieved
average degree matches the requested density, and the deployment is rejected
and re-sampled if the resulting graph is disconnected.  Every generator finds
the pairs in range with a grid-bucketed search and stores the graph as a
:class:`CSRAdjacency`, the one adjacency representation at every scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.network.node import Position, SensorNode

#: Named density presets from Appendix C: name -> average neighbour count.
DENSITY_PRESETS: Dict[str, float] = {
    "sparse": 6.0,
    "moderate": 7.0,
    "medium": 8.0,
    "dense": 13.0,
}

#: Alive-node count from which :class:`PathCache` runs the level-synchronous
#: array BFS instead of the frontier loop over memoised rows.  Both walk the
#: same CSR rows in the same order; only their speed differs.  Where they
#: cross depends on how many sources share one epoch's rows: for a single
#: source the array kernel wins from ~1k nodes (it builds no rows), for
#: twenty the loop wins up to ~8k (2k nodes: array 3.3 ms, loop 1.7 ms per
#: source; 30k: 31 ms against 51 ms).  The cutoff sits between the two.
ARRAY_BFS_MIN_NODES = 3072


class CSRAdjacency:
    """Symmetric adjacency of nodes ``0..num_nodes-1`` in compressed-sparse-row form.

    ``indices[indptr[n]:indptr[n + 1]]`` holds the neighbours of node ``n``,
    sorted ascending.  The arrays are never written in place: the two row
    mutators (:meth:`isolate` / :meth:`connect`, used by link surgery during
    mobility) build replacement arrays, so copies may share them.
    """

    __slots__ = ("indptr", "indices", "num_nodes")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, num_nodes: int) -> None:
        self.indptr = indptr
        self.indices = indices
        self.num_nodes = int(num_nodes)

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, Iterable[int]],
                     num_nodes: int) -> "CSRAdjacency":
        """Build from ``{node: neighbours}``; the mapping must be symmetric."""
        rows = {node_id: set(neighbours) for node_id, neighbours in mapping.items()}
        for node_id, neighbours in rows.items():
            for other in (node_id, *neighbours):
                if not (isinstance(other, (int, np.integer)) and 0 <= other < num_nodes):
                    raise ValueError(f"adjacency references unknown node {other}")
            for other in neighbours:
                if node_id not in rows.get(other, ()):
                    raise ValueError("adjacency must be symmetric")
        edges = [(a, b) for a, neighbours in rows.items() for b in neighbours if a < b]
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        return _csr_from_pairs(pairs[:, 0], pairs[:, 1], num_nodes)

    def row_list(self, node_id: int) -> List[int]:
        """Sorted neighbour ids of one node as plain Python ints."""
        return self.indices[self.indptr[node_id]:self.indptr[node_id + 1]].tolist()

    def total_degree(self) -> int:
        return int(self.indptr[-1])

    # -- row mutators ------------------------------------------------------------
    def isolate(self, node_id: int) -> None:
        """Drop every link of *node_id*."""
        rows = {other: [n for n in self.row_list(other) if n != node_id]
                for other in self.row_list(node_id)}
        rows[node_id] = []
        self._replace_rows(rows)

    def connect(self, node_id: int, others: Iterable[int]) -> None:
        """Link *node_id* to each of *others* (existing links are kept)."""
        others = set(others)
        rows = {other: set(self.row_list(other)) | {node_id} for other in others}
        rows[node_id] = set(self.row_list(node_id)) | others
        self._replace_rows(rows)

    def _replace_rows(self, rows: Mapping[int, Iterable[int]]) -> None:
        """New arrays with the given rows replaced (re-sorted), the rest copied."""
        indptr, indices = self.indptr, self.indices
        counts = np.diff(indptr)
        owner = np.repeat(np.arange(self.num_nodes), counts)
        replaced = {node_id: np.asarray(sorted(row), dtype=np.int32)
                    for node_id, row in rows.items()}
        for node_id, row in replaced.items():
            counts[node_id] = row.size
        new_indptr = np.zeros_like(indptr)
        np.cumsum(counts, out=new_indptr[1:])
        new_indices = np.empty(int(new_indptr[-1]), dtype=np.int32)
        kept = np.ones(self.num_nodes, dtype=bool)
        kept[list(replaced)] = False
        keep = np.flatnonzero(kept[owner])
        kept_owner = owner[keep]
        new_indices[new_indptr[kept_owner] + keep - indptr[kept_owner]] = indices[keep]
        for node_id, row in replaced.items():
            new_indices[new_indptr[node_id]:new_indptr[node_id + 1]] = row
        self.indptr, self.indices = new_indptr, new_indices

    def copy(self) -> "CSRAdjacency":
        """Shares the arrays, which the mutators replace rather than write."""
        return CSRAdjacency(self.indptr, self.indices, self.num_nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRAdjacency(nodes={self.num_nodes}, edges={int(self.indptr[-1]) // 2})"


def _ragged_gather(indptr: np.ndarray, indices: np.ndarray,
                   frontier: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """All CSR neighbours of *frontier*, in (frontier order x row order).

    Returns ``(candidates, sources)`` where ``sources[k]`` is the frontier
    node whose row produced ``candidates[k]``.
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=indices.dtype), np.zeros(0, dtype=frontier.dtype)
    offsets = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    candidates = indices[np.repeat(starts, counts) + within]
    sources = np.repeat(frontier, counts)
    return candidates, sources


class _AliveAdjacencyView(dict):
    """``{node: sorted alive neighbours}``, rows sliced out on first use.

    Rows are built on demand rather than all at once per epoch (O(N+E) at
    1M nodes).  With *memoise* each row is kept once built, which is what
    the frontier-loop BFS reads over and over; large deployments leave it
    off so a network-wide flood does not pin every row.  Treat the
    returned lists as read-only.
    """

    __slots__ = ("_indptr", "_indices", "_alive_mask", "_all_alive", "_memoise")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 alive_mask: np.ndarray, all_alive: bool, memoise: bool) -> None:
        super().__init__()
        self._indptr = indptr
        self._indices = indices
        self._alive_mask = alive_mask
        self._all_alive = all_alive
        self._memoise = memoise

    def __missing__(self, node_id: int) -> List[int]:
        row = self._indices[self._indptr[node_id]:self._indptr[node_id + 1]]
        if not self._all_alive:
            row = row[self._alive_mask[row]]
        row = row.tolist()
        if self._memoise:
            self[node_id] = row
        return row

    def get(self, node_id, default=None):
        if isinstance(node_id, (int, np.integer)) and \
                0 <= node_id < self._alive_mask.shape[0]:
            return self[int(node_id)]
        return default


class DeploymentMemo:
    """What is a pure function of one topology at one routing epoch (trees,
    substrates, explorations, static pair sets), built once and shared by
    every run on it, each kind keyed by what else it depends on.

    Holders treat values as read-only and copy before a repair; runs still
    charge their own messages.  Static attributes count as deployment: a
    change to them must bump the routing epoch.  Each kind keeps at most
    :attr:`MAX_ENTRIES` entries, oldest dropped first, so a long-lived
    process cannot grow one epoch's memo without bound.
    """

    MAX_ENTRIES = 256

    __slots__ = ("_kinds",)

    def __init__(self) -> None:
        self._kinds: Dict[str, Dict[Any, Any]] = {}

    def get(self, kind: str, key: Any, build: Callable[[], Any]) -> Any:
        """The memoised value of (*kind*, *key*), built by *build* on a miss."""
        entries = self._kinds.setdefault(kind, {})
        value = entries.get(key)
        if value is None:
            value = build()
            if len(entries) >= self.MAX_ENTRIES:
                entries.pop(next(iter(entries)))
            entries[key] = value
        return value


class PathCache:
    """Epoch-guarded routing cache for one :class:`Topology`.

    Memoizes, per source node, one BFS over the *alive* subgraph -- hop and
    parent vectors indexed by node id (-1 = unreachable) plus the discovery
    order -- and the shortest paths reconstructed from it, and keeps the
    alive-adjacency rows so ``neighbors()`` stops filtering on every call.

    Every structure is validated against the owning topology's routing epoch,
    which is bumped by ``remove_links_of`` / ``rebuild_links_of``, by node
    death/recovery/moves (via the :class:`~repro.network.node.SensorNode`
    state listener) and by explicit ``invalidate_routing_caches()`` calls, so
    failure and mobility experiments always see fresh tables.

    Two kernels produce the BFS, chosen per epoch by the alive node count
    (:data:`ARRAY_BFS_MIN_NODES`): a frontier loop over the memoised alive
    rows (Python lists) below it, a level-synchronous vectorized BFS
    (int32 arrays) from it on.  Both visit candidates in frontier order x
    sorted row and let the first discoverer win, so they produce the same
    tables; the dict-shaped :meth:`bfs_tables` keeps that discovery order as
    its insertion order.  Landmark-based approximate hop estimates serve the
    largest deployments, where even one exact table per source is too much.

    It also owns the topology's :class:`DeploymentMemo` (:attr:`memo`);
    an epoch bump drops it with the BFS tables.
    """

    #: Always true: every topology is CSR-backed (kept for callers that
    #: still ask).
    array_mode = True

    __slots__ = (
        "_topology", "epoch", "alive_set", "alive_adjacency", "alive_mask",
        "indptr", "indices", "_array_kernel", "_results", "_tables", "_paths",
        "_landmarks", "memo",
    )

    def __init__(self, topology: "Topology") -> None:
        self._topology = topology
        self.epoch = -1
        self.alive_set: frozenset = frozenset()
        self.alive_adjacency: Dict[int, List[int]] = {}
        self.alive_mask: Optional[np.ndarray] = None
        self.indptr: Optional[np.ndarray] = None
        self.indices: Optional[np.ndarray] = None
        self._array_kernel = False
        #: source -> (hops, parents, discovery order)
        self._results: Dict[int, Tuple[Sequence[int], Sequence[int], Sequence[int]]] = {}
        #: source -> (hops dict, parents dict), both in discovery order
        self._tables: Dict[int, Tuple[Dict[int, int], Dict[int, int]]] = {}
        self._paths: Dict[Tuple[int, int], Optional[Tuple[int, ...]]] = {}
        #: landmark count -> (landmark ids int64[k], hop matrix int32[k, n])
        self._landmarks: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self.memo = DeploymentMemo()

    # ------------------------------------------------------------------
    def validate(self) -> "PathCache":
        """Rebuild the alive structures and drop BFS tables and the
        deployment memo if stale."""
        topology = self._topology
        epoch = topology.routing_epoch
        if epoch != self.epoch:
            adjacency = topology.adjacency
            self.indptr, self.indices = adjacency.indptr, adjacency.indices
            num_nodes = adjacency.num_nodes
            mask = np.ones(num_nodes, dtype=bool)
            dead = [nid for nid, node in topology.nodes.items() if not node.alive]
            if dead:
                mask[np.asarray(dead, dtype=np.int64)] = False
                self.alive_set = frozenset(np.flatnonzero(mask).tolist())
            else:
                self.alive_set = frozenset(range(num_nodes))
            self.alive_mask = mask
            self._array_kernel = num_nodes - len(dead) >= ARRAY_BFS_MIN_NODES
            self.alive_adjacency = _AliveAdjacencyView(
                self.indptr, self.indices, mask, not dead,
                memoise=not self._array_kernel,
            )
            self._results.clear()
            self._tables.clear()
            self._paths.clear()
            self._landmarks.clear()
            self.memo = DeploymentMemo()
            self.epoch = epoch
        return self

    # ------------------------------------------------------------------
    # the two BFS kernels
    # ------------------------------------------------------------------
    def _bfs(self, source: int) -> Tuple[Sequence[int], Sequence[int], Sequence[int]]:
        result = self._results.get(source)
        if result is None:
            result = (self._array_bfs(source) if self._array_kernel
                      else self._frontier_bfs(source))
            self._results[source] = result
        return result

    def _frontier_bfs(self, source: int) -> Tuple[List[int], List[int], List[int]]:
        """Python frontier loop over the memoised alive rows."""
        rows = self.alive_adjacency
        num_nodes = self.alive_mask.shape[0]
        hops = [-1] * num_nodes
        parents = [-1] * num_nodes
        hops[source] = 0
        parents[source] = source
        order = [source]
        frontier = [source]
        depth = 0
        while frontier:
            depth += 1
            next_frontier: List[int] = []
            for current in frontier:
                for neighbour in rows[current]:
                    if hops[neighbour] < 0:
                        hops[neighbour] = depth
                        parents[neighbour] = current
                        next_frontier.append(neighbour)
            order.extend(next_frontier)
            frontier = next_frontier
        return hops, parents, order

    def _array_bfs(self, source: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized level-synchronous BFS with the frontier loop's order.

        Candidates are gathered level by level in (frontier order x sorted
        row) order; ``np.unique(..., return_index=True)`` keeps each node's
        first occurrence, and re-sorting those indices restores the gather
        order -- exactly the "first discoverer wins" order of the loop.
        """
        indptr, indices, mask = self.indptr, self.indices, self.alive_mask
        num_nodes = mask.shape[0]
        hops = np.full(num_nodes, -1, dtype=np.int32)
        parents = np.full(num_nodes, -1, dtype=np.int32)
        hops[source] = 0
        parents[source] = source
        frontier = np.asarray([source], dtype=np.int32)
        order_chunks = [frontier]
        depth = 0
        while frontier.size:
            depth += 1
            candidates, sources = _ragged_gather(indptr, indices, frontier)
            if candidates.size == 0:
                break
            keep = mask[candidates] & (hops[candidates] < 0)
            candidates = candidates[keep]
            sources = sources[keep]
            if candidates.size == 0:
                break
            _, first = np.unique(candidates, return_index=True)
            first.sort()
            newly = candidates[first]
            hops[newly] = depth
            parents[newly] = sources[first]
            order_chunks.append(newly)
            frontier = newly
        return hops, parents, np.concatenate(order_chunks)

    def hops_array(self, source: int) -> np.ndarray:
        """int32 hop vector from *source* (-1 = unreachable)."""
        return np.asarray(self._bfs(source)[0], dtype=np.int32)

    def hop_count(self, source: int, target: int) -> Optional[int]:
        """Hop count from *source* to *target*, or ``None`` if unreachable."""
        hop = self._bfs(source)[0][target]
        return None if hop < 0 else int(hop)

    # ------------------------------------------------------------------
    # landmark / approximate-BFS mode (largest rungs)
    # ------------------------------------------------------------------
    def landmark_tables(self, num_landmarks: int = 8
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Hop tables from *num_landmarks* spread sources.

        The base station is always the first landmark; the rest are spread
        deterministically over the id range.  Returns ``(landmark_ids,
        hop_matrix)`` with ``hop_matrix[k, n]`` the exact hop count from
        landmark ``k`` to node ``n`` (-1 = unreachable).  Epoch-guarded like
        every other table in this cache.
        """
        num_nodes = self.alive_mask.shape[0]
        num_landmarks = max(1, min(int(num_landmarks), num_nodes))
        cached = self._landmarks.get(num_landmarks)
        if cached is not None:
            return cached
        spread = np.linspace(0, num_nodes - 1, num=num_landmarks, dtype=np.int64)
        picks: List[int] = [self._topology.base_id]
        for candidate in spread.tolist():
            if len(picks) == num_landmarks:
                break
            if candidate not in picks:
                picks.append(candidate)
        landmark_ids = np.asarray(picks[:num_landmarks], dtype=np.int64)
        matrix = np.vstack([self.hops_array(int(landmark)) for landmark in landmark_ids])
        result = (landmark_ids, matrix)
        self._landmarks[num_landmarks] = result
        return result

    def approx_hops(self, a: int, b: int, num_landmarks: int = 8) -> Optional[int]:
        """Landmark upper bound on the hop distance between two nodes.

        ``min over landmarks L of hops(L, a) + hops(L, b)`` -- never less
        than the true distance, and exact whenever either endpoint is a
        landmark.  ``None`` when no landmark reaches both endpoints.
        """
        if a == b:
            return 0
        _, matrix = self.landmark_tables(num_landmarks)
        via_a = matrix[:, a]
        via_b = matrix[:, b]
        valid = (via_a >= 0) & (via_b >= 0)
        if not bool(valid.any()):
            return None
        return int((via_a[valid].astype(np.int64) + via_b[valid]).min())

    # ------------------------------------------------------------------
    def bfs_tables(self, source: int) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Memoized (hops, parents) dicts in BFS discovery order."""
        tables = self._tables.get(source)
        if tables is None:
            hops, parents, order = (
                vector if isinstance(vector, list) else vector.tolist()
                for vector in self._bfs(source)
            )
            tables = ({nid: hops[nid] for nid in order},
                      {nid: parents[nid] for nid in order})
            self._tables[source] = tables
        return tables

    def path(self, source: int, target: int) -> Optional[Tuple[int, ...]]:
        """Memoized minimum-hop path (as a tuple), or ``None``."""
        key = (source, target)
        if key in self._paths:
            return self._paths[key]
        hops, parents, _ = self._bfs(source)
        if hops[target] < 0:
            result = None
        else:
            path = [target]
            while path[-1] != source:
                path.append(int(parents[path[-1]]))
            path.reverse()
            result = tuple(path)
        self._paths[key] = result
        return result


@dataclass
class Topology:
    """An immutable-ish deployment: node set plus symmetric adjacency.

    Nodes are ids ``0..n-1``; their links are one :class:`CSRAdjacency`
    (hand-built graphs go through :meth:`CSRAdjacency.from_mapping`).
    The base station is always present and is, by convention, the node whose
    id equals :attr:`base_id`.
    """

    nodes: Dict[int, SensorNode]
    adjacency: CSRAdjacency
    base_id: int = 0
    radio_range: float = 0.0
    name: str = "topology"
    area: Tuple[float, float] = (0.0, 0.0)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.base_id not in self.nodes:
            raise ValueError("base_id must refer to an existing node")
        # Symmetry holds by construction (generators insert every pair both
        # ways; from_mapping checks hand-built graphs), so only the size is
        # checked here.
        if self.adjacency.num_nodes != len(self.nodes):
            raise ValueError("adjacency size does not match node count")
        self.nodes[self.base_id].is_base = True
        self._routing_epoch = 0
        self._path_cache = PathCache(self)
        self._node_ids_cache: Optional[List[int]] = None
        # Node death/recovery/moves must invalidate the routing caches even
        # when triggered directly on the node (e.g. by a FailureInjector).
        for node in self.nodes.values():
            node._state_listener = self.invalidate_routing_caches

    # -- routing-cache control -------------------------------------------------
    @property
    def routing_epoch(self) -> int:
        """Monotonic counter identifying the current connectivity state."""
        return self._routing_epoch

    def invalidate_routing_caches(self) -> None:
        """Bump the routing epoch; all cached paths/tables become stale."""
        self._routing_epoch += 1

    @property
    def routing_cache(self) -> PathCache:
        """The validated (fresh) path cache for the current epoch."""
        return self._path_cache.validate()

    # -- basic accessors -----------------------------------------------------
    @property
    def node_ids(self) -> List[int]:
        """Sorted node ids (memoized -- treat the returned list as read-only).

        The node set never changes after construction (mobility and failures
        alter liveness and links, not membership), so one sort serves every
        call; this property is hot in topology generation, workload setup and
        the mobility phases.
        """
        ids = self._node_ids_cache
        if ids is None or len(ids) != len(self.nodes):
            ids = sorted(self.nodes)
            self._node_ids_cache = ids
        return ids

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def base(self) -> SensorNode:
        return self.nodes[self.base_id]

    def neighbors(self, node_id: int, only_alive: bool = True) -> List[int]:
        """Neighbours of a node, optionally filtering out failed nodes.

        The alive view always comes from the epoch-validated adjacency in the
        routing cache, so the per-call cost is one row copy; the cache
        rebuilds at most once per connectivity change instead of re-filtering
        ``nodes[n].alive`` and re-sorting on every invocation.
        """
        if not only_alive:
            return self.adjacency.row_list(node_id)
        return list(self._path_cache.validate().alive_adjacency.get(node_id, ()))

    def average_degree(self) -> float:
        if not self.nodes:
            return 0.0
        return self.adjacency.total_degree() / len(self.nodes)

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance in metres between two nodes."""
        return self.nodes[a].distance_to(self.nodes[b])

    # -- graph algorithms ------------------------------------------------------
    def is_connected(self, only_alive: bool = True,
                     excluding: Optional[int] = None) -> bool:
        """Whether the (alive) nodes, less *excluding*, form one component."""
        adjacency = self.adjacency
        indptr, indices = adjacency.indptr, adjacency.indices
        num_nodes = adjacency.num_nodes
        eligible = np.ones(num_nodes, dtype=bool)
        if only_alive:
            dead = [nid for nid, node in self.nodes.items() if not node.alive]
            if dead:
                eligible[np.asarray(dead, dtype=np.int64)] = False
        if excluding is not None:
            eligible[excluding] = False
        total = int(eligible.sum())
        if total == 0:
            return True
        start = int(np.flatnonzero(eligible)[0])
        seen = np.zeros(num_nodes, dtype=bool)
        seen[start] = True
        num_seen = 1
        frontier = np.asarray([start], dtype=np.int32)
        while frontier.size:
            candidates, _ = _ragged_gather(indptr, indices, frontier)
            if candidates.size == 0:
                break
            candidates = np.unique(candidates[eligible[candidates] & ~seen[candidates]])
            if candidates.size == 0:
                break
            seen[candidates] = True
            num_seen += int(candidates.size)
            frontier = candidates.astype(np.int32, copy=False)
        return num_seen == total

    def shortest_hops(self, source: int) -> Dict[int, int]:
        """Hop counts from *source* to every reachable alive node (BFS).

        Served from the epoch-guarded :class:`PathCache`; the returned
        dictionary is a copy the caller may mutate.
        """
        if source not in self.nodes:
            raise KeyError(f"unknown node {source}")
        return dict(self._path_cache.validate().bfs_tables(source)[0])

    def shortest_hops_view(self, source: int) -> Dict[int, int]:
        """The cached alive-subgraph hop table itself (treat as read-only).

        Hot callers (centralized optimizer, multi-tree root selection) use
        this to avoid the defensive copy :meth:`shortest_hops` makes.
        """
        if source not in self.nodes:
            raise KeyError(f"unknown node {source}")
        return self._path_cache.validate().bfs_tables(source)[0]

    def shortest_path(self, source: int, target: int) -> Optional[List[int]]:
        """A minimum-hop path over alive nodes from *source* to *target*, or
        ``None``."""
        if source == target:
            return [source]
        cached = self._path_cache.validate().path(source, target)
        return None if cached is None else list(cached)

    def hops_between(self, a: int, b: int) -> Optional[int]:
        """Hop count between two nodes over alive nodes, without
        reconstructing the path (a lookup in the cached BFS hop table)."""
        if a == b:
            return 0
        return self._path_cache.validate().hop_count(a, b)

    # -- mutation (used by mobility and failures) -----------------------------
    def remove_links_of(self, node_id: int) -> None:
        self.adjacency.isolate(node_id)
        self.invalidate_routing_caches()

    def rebuild_links_of(self, node_id: int) -> List[int]:
        """Reconnect a node to every alive node within radio range."""
        node = self.nodes[node_id]
        new_neighbours: List[int] = []
        for other_id, other in self.nodes.items():
            if other_id == node_id or not other.alive:
                continue
            if node.distance_to(other) <= self.radio_range:
                new_neighbours.append(other_id)
        self.adjacency.connect(node_id, new_neighbours)
        self.invalidate_routing_caches()
        return sorted(new_neighbours)

    def copy(self) -> "Topology":
        """Deep-enough copy: nodes and adjacency are duplicated."""
        nodes = {
            nid: SensorNode(
                node_id=n.node_id,
                position=n.position,
                is_base=n.is_base,
                static_attributes=dict(n.static_attributes),
                alive=n.alive,
            )
            for nid, n in self.nodes.items()
        }
        return Topology(
            nodes=nodes,
            adjacency=self.adjacency.copy(),
            base_id=self.base_id,
            radio_range=self.radio_range,
            name=self.name,
            area=self.area,
            metadata=dict(self.metadata),
        )


# ---------------------------------------------------------------------------
# Generators: grid-bucketed pair search, no N x N distance matrix
# ---------------------------------------------------------------------------

def _radius_candidate_pairs(
    xs: np.ndarray, ys: np.ndarray, radius: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every unordered point pair within *radius*, via a uniform cell grid.

    Points are bucketed into square cells of side *radius*; any pair within
    range must then lie in the same or one of the 8 adjacent cells, so each
    unordered pair is generated exactly once from the half-neighbourhood
    offsets {(0,0) with i<j, (0,1), (1,-1), (1,0), (1,1)}.  Pure numpy
    (sort + searchsorted + ragged gathers): scipy is optional in the target
    environments, so no cKDTree.

    Returns ``(i, j, dist)`` with ``dist = sqrt(dx*dx + dy*dy)`` in float64,
    the same IEEE operations as a full pairwise distance matrix, so threshold
    decisions downstream do not depend on how the pairs were found.
    """
    num_points = xs.shape[0]
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
             np.zeros(0, dtype=np.float64))
    if num_points < 2:
        return empty
    cell = max(float(radius), 1e-9)
    gx = np.floor(xs / cell).astype(np.int64)
    gy = np.floor(ys / cell).astype(np.int64)
    gx -= gx.min()
    gy -= gy.min()
    # +3 leaves an empty guard column so gy +/- 1 never aliases into a
    # neighbouring gx row of the composite key.
    stride = int(gy.max()) + 3
    keys = gx * stride + gy
    order = np.argsort(keys, kind="stable")
    cell_keys, cell_starts = np.unique(keys[order], return_index=True)
    cell_counts = np.diff(np.append(cell_starts, num_points))

    def pairs_into(target_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Pair every point p with all members of the cell keyed target_keys[p]."""
        pos = np.searchsorted(cell_keys, target_keys)
        pos = np.minimum(pos, len(cell_keys) - 1)
        valid = cell_keys[pos] == target_keys
        src = np.flatnonzero(valid)
        if src.size == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        counts = cell_counts[pos[valid]]
        starts = cell_starts[pos[valid]]
        total = int(counts.sum())
        offsets = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
        members = order[np.repeat(starts, counts) + within]
        return np.repeat(src, counts), members

    pair_i: List[np.ndarray] = []
    pair_j: List[np.ndarray] = []
    same_i, same_j = pairs_into(keys)
    half = same_i < same_j
    pair_i.append(same_i[half])
    pair_j.append(same_j[half])
    for dx, dy in ((0, 1), (1, -1), (1, 0), (1, 1)):
        cross_i, cross_j = pairs_into(keys + dx * stride + dy)
        pair_i.append(cross_i)
        pair_j.append(cross_j)
    i = np.concatenate(pair_i)
    j = np.concatenate(pair_j)
    if i.size == 0:
        return empty
    dx_v = xs[i] - xs[j]
    dy_v = ys[i] - ys[j]
    dist = np.sqrt(dx_v * dx_v + dy_v * dy_v)
    keep = dist <= radius
    return i[keep], j[keep], dist[keep]


def _csr_from_pairs(i: np.ndarray, j: np.ndarray, num_nodes: int) -> CSRAdjacency:
    """Symmetric CSR adjacency (sorted rows) from unordered edge pairs."""
    src = np.concatenate([i, j])
    dst = np.concatenate([j, i])
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    return CSRAdjacency(indptr, dst.astype(np.int32), num_nodes)


def _gather_margin(span: float) -> float:
    """Slack added to a gather radius so float rounding in the cell bucketing
    (or a bisection landing a hair past its bound) never drops a pair."""
    return max(1e-9, span * 1e-9)


def _csr_within_radius(positions: Dict[int, Position], radius: float) -> CSRAdjacency:
    """Disc-model adjacency of nodes ``0..n-1`` for a fixed radio range."""
    coords = np.array([positions[i] for i in range(len(positions))], dtype=float)
    span = float(coords.max() - coords.min())
    i, j, dist = _radius_candidate_pairs(
        coords[:, 0], coords[:, 1], radius + _gather_margin(span)
    )
    keep = dist <= radius
    return _csr_from_pairs(i[keep], j[keep], len(positions))


def _solve_radio_range(
    xs: np.ndarray, ys: np.ndarray, target_degree: float
) -> Tuple[float, CSRAdjacency]:
    """Binary-search the disc radius so the average degree hits the target.

    The average degree at radius r is twice the number of pairs within r
    over the node count.  Candidate pairs are gathered once within an
    upper-bound radius whose degree already reaches the target; each
    bisection probe below that bound is then an exact ``searchsorted`` count
    over the sorted candidate distances, and probes above the bound take the
    "degree >= target" branch by monotonicity.  The bisection thus walks the
    same (lo, hi) sequence as exact counting over all N^2 pairs, without
    materializing them.
    """
    num_nodes = xs.shape[0]
    span = float(max(xs.max(), ys.max()) - min(xs.min(), ys.min())) if num_nodes else 1.0
    lo, hi = 1e-6, max(span * 2.0, 1.0)
    if num_nodes < 2:
        return hi, _csr_from_pairs(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), num_nodes
        )
    width = float(xs.max() - xs.min())
    height = float(ys.max() - ys.min())
    area = width * height
    if area > 0.0:
        r_bound = math.sqrt(target_degree * area / (math.pi * num_nodes)) * 1.25
    else:
        r_bound = hi
    r_bound = min(max(r_bound, 1e-6), hi)
    while True:
        # The margin covers the worst-case bisection drift above r_bound
        # (~span * 2^-47), so the final radius is always inside the
        # candidate set even when it lands a hair past the bound.
        i, j, dist = _radius_candidate_pairs(xs, ys, r_bound + _gather_margin(span))
        pairs_at_bound = int(np.searchsorted(np.sort(dist), r_bound, side="right"))
        if float(2 * pairs_at_bound) / num_nodes >= target_degree or r_bound >= hi:
            break
        r_bound = min(r_bound * 1.4, hi)
    dist_sorted = np.sort(dist)
    for _ in range(48):
        mid = (lo + hi) / 2.0
        if mid <= r_bound:
            count = int(np.searchsorted(dist_sorted, mid, side="right"))
            below_target = float(2 * count) / num_nodes < target_degree
        else:
            # degree(mid) >= degree(r_bound) >= target by monotonicity
            below_target = False
        if below_target:
            lo = mid
        else:
            hi = mid
    keep = dist <= hi
    return hi, _csr_from_pairs(i[keep], j[keep], num_nodes)


def scale_preset_degree(num_nodes: int) -> float:
    """Target average degree of the ``scale`` preset.

    Random geometric graphs need the degree to grow ~log(N) to stay
    connected (at degree 7 a 100k-node deployment expects ~90 isolated
    nodes); 1.6 ln N with a floor of 12 keeps the rejection-sampling loop
    honest from 1k to 1M nodes.
    """
    return max(12.0, 1.6 * math.log(max(num_nodes, 2)))


def random_topology(
    num_nodes: int = 100,
    average_degree: float = 7.0,
    area_size: float = 256.0,
    seed: int = 0,
    name: Optional[str] = None,
    max_attempts: int = 50,
) -> Topology:
    """Generate a connected random deployment with a target average degree.

    Nodes are placed uniformly at random on an ``area_size x area_size``
    square (the paper uses a 256 m x 256 m grid for ``pos``).  The base
    station is the node closest to the centre of the area, mirroring typical
    deployments where the sink is centrally placed.
    """
    if num_nodes < 2:
        raise ValueError("need at least two nodes")
    if average_degree <= 0:
        raise ValueError("average_degree must be positive")
    rng = np.random.default_rng(seed)
    for attempt in range(max_attempts):
        xs = rng.uniform(0.0, area_size, size=num_nodes)
        ys = rng.uniform(0.0, area_size, size=num_nodes)
        positions = {i: (float(xs[i]), float(ys[i])) for i in range(num_nodes)}
        radio_range, adjacency = _solve_radio_range(xs, ys, average_degree)
        nodes = {
            i: SensorNode(node_id=i, position=positions[i]) for i in range(num_nodes)
        }
        centre = (area_size / 2.0, area_size / 2.0)
        # argmin takes the first minimum: ties go to the lowest id
        base_id = int(np.argmin((xs - centre[0]) ** 2 + (ys - centre[1]) ** 2))
        topology = Topology(
            nodes=nodes,
            adjacency=adjacency,
            base_id=base_id,
            radio_range=radio_range,
            name=name or f"random-{average_degree:g}",
            area=(area_size, area_size),
            metadata={"seed": seed, "attempt": attempt, "target_degree": average_degree},
        )
        if topology.is_connected():
            return topology
    raise RuntimeError(
        f"failed to generate a connected topology after {max_attempts} attempts"
    )


def topology_from_preset(
    preset: str, num_nodes: int = 100, seed: int = 0, area_size: float = 256.0
) -> Topology:
    """Generate one of the paper's named random densities (Appendix C).

    The extra ``scale`` preset (not from the paper) serves the 1k -> 1M
    scale ladder: a random deployment whose target degree grows ~log(N) so
    the graph stays connected at city scale.
    """
    if preset == "grid":
        return grid_topology(num_nodes=num_nodes, area_size=area_size)
    if preset == "intel":
        return intel_lab_topology()
    if preset == "scale":
        return random_topology(
            num_nodes=num_nodes,
            average_degree=scale_preset_degree(num_nodes),
            area_size=area_size,
            seed=seed,
            name="scale",
        )
    if preset not in DENSITY_PRESETS:
        raise KeyError(
            f"unknown preset {preset!r}; expected one of "
            f"{sorted(DENSITY_PRESETS) + ['grid', 'intel', 'scale']}"
        )
    return random_topology(
        num_nodes=num_nodes,
        average_degree=DENSITY_PRESETS[preset],
        area_size=area_size,
        seed=seed,
        name=preset,
    )


def grid_topology(
    num_nodes: int = 100, area_size: float = 256.0, name: str = "grid"
) -> Topology:
    """A square grid deployment with 8-connectivity (≈7 neighbours on average).

    The paper's "grid" topology averages about 7 neighbours per node, which an
    8-connected lattice achieves once boundary effects are taken into account.
    """
    side = int(round(num_nodes ** 0.5))
    if side * side != num_nodes:
        raise ValueError("grid_topology requires a perfect-square node count")
    spacing = area_size / max(side - 1, 1)
    positions: Dict[int, Position] = {}
    for row in range(side):
        for col in range(side):
            node_id = row * side + col
            positions[node_id] = (col * spacing, row * spacing)
    # 8-connectivity: diagonal distance is spacing * sqrt(2)
    radio_range = spacing * 1.5
    adjacency = _csr_within_radius(positions, radio_range)
    nodes = {i: SensorNode(node_id=i, position=positions[i]) for i in positions}
    centre_id = (side // 2) * side + side // 2
    topology = Topology(
        nodes=nodes,
        adjacency=adjacency,
        base_id=centre_id,
        radio_range=radio_range,
        name=name,
        area=(area_size, area_size),
        metadata={"side": side, "spacing": spacing},
    )
    return topology


# Approximate mote positions (metres) in the Intel Research Berkeley lab.  The
# real dataset ships 54 motes spread through a ~40 m x 30 m office floor; we
# reproduce the footprint (perimeter offices plus a central corridor cluster)
# so that region-based queries see realistic spatial clustering.  See
# DESIGN.md, substitution table.
_INTEL_LAB_POSITIONS: Sequence[Tuple[float, float]] = tuple(
    (float(x), float(y))
    for x, y in [
        (21.5, 23.0), (24.5, 20.0), (19.5, 19.0), (22.5, 15.0), (24.5, 12.0),
        (19.5, 9.0), (22.5, 5.0), (24.5, 2.0), (19.5, 1.0), (16.5, 3.0),
        (13.5, 1.0), (10.5, 3.0), (7.5, 1.0), (4.5, 3.0), (1.5, 1.0),
        (0.5, 5.0), (2.5, 8.0), (0.5, 11.0), (2.5, 14.0), (0.5, 17.0),
        (2.5, 20.0), (0.5, 23.0), (3.5, 25.0), (6.5, 27.0), (9.5, 25.0),
        (12.5, 27.0), (15.5, 25.0), (18.5, 27.0), (21.5, 27.0), (24.5, 26.0),
        (27.5, 24.0), (30.5, 26.0), (33.5, 24.0), (36.5, 26.0), (39.5, 24.0),
        (40.5, 21.0), (38.5, 18.0), (40.5, 15.0), (38.5, 12.0), (40.5, 9.0),
        (38.5, 6.0), (40.5, 3.0), (37.5, 1.0), (34.5, 3.0), (31.5, 1.0),
        (28.5, 3.0), (27.5, 7.0), (29.5, 10.0), (27.5, 13.0), (29.5, 16.0),
        (27.5, 19.0), (13.5, 13.0), (10.5, 16.0), (16.5, 10.0),
    ]
)


def intel_lab_topology(radio_range: float = 7.5, name: str = "intel") -> Topology:
    """The Intel-Research-Berkeley-like 54-node lab deployment.

    The radio range default (7.5 m) yields an average degree comparable to the
    "moderate" random topology, matching the connectivity the paper reports
    for the Intel dataset deployment.
    """
    positions = {i: pos for i, pos in enumerate(_INTEL_LAB_POSITIONS)}
    adjacency = _csr_within_radius(positions, radio_range)
    nodes = {i: SensorNode(node_id=i, position=positions[i]) for i in positions}
    # The base station sits by the lab entrance near the corridor centre.
    base_id = 51
    topology = Topology(
        nodes=nodes,
        adjacency=adjacency,
        base_id=base_id,
        radio_range=radio_range,
        name=name,
        area=(42.0, 28.0),
        metadata={"dataset": "intel-lab-synthetic"},
    )
    if not topology.is_connected():
        raise RuntimeError("Intel lab topology should be connected; check radio range")
    return topology
