"""Scalar reference rules for the topology and routing layers (test oracle).

Production keeps one adjacency representation, :class:`CSRAdjacency`, built
by a grid-bucketed pair search and walked by array kernels.  This module
keeps the plain rules those replaced, over ``{node: set(neighbours)}``
dictionaries, so parity tests can hold production to them:

- generation from the full N x N distance matrix (radius bisection by
  exact pair counting, rejection of disconnected deployments);
- the dict BFS behind hop tables and shortest paths;
- the scalar routing-tree BFS with its per-node tie-break sort;
- the scalar GHT / DHT home-node scans and the furthest-root loop;
- the leaf rule (connectivity with the probed node removed).

It also builds hand-made graphs (:func:`csr_from_mapping`) and brings a
failed node back (:func:`recover`); the program does neither.

Nothing under ``src/`` imports this module, and no switch selects it.
"""

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

Adjacency = Dict[int, Set[int]]


# ---------------------------------------------------------------------------
# views of a production topology
# ---------------------------------------------------------------------------

def dict_adjacency(topology) -> Adjacency:
    """The topology's full (dead nodes included) adjacency as sets."""
    return {nid: set(topology.neighbors(nid, only_alive=False))
            for nid in topology.node_ids}


def alive_ids(topology) -> Set[int]:
    return {nid for nid, node in topology.nodes.items() if node.alive}


# ---------------------------------------------------------------------------
# hand-built graphs and node state the program never sets
# ---------------------------------------------------------------------------

def csr_from_mapping(mapping: Dict[int, Iterable[int]], num_nodes: int):
    """A :class:`CSRAdjacency` from ``{node: neighbours}``; the mapping must
    be symmetric and name only nodes ``0..num_nodes-1``."""
    from repro.network.topology import _csr_from_pairs

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


def recover(node) -> None:
    """Bring a failed node back; its topology's routing caches go stale."""
    node.alive = True
    node._notify_state_change()


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    diffs = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diffs ** 2).sum(axis=-1))


def adjacency_from_distances(ids, dists: np.ndarray, radius: float) -> Adjacency:
    adjacency: Adjacency = {i: set() for i in ids}
    within = dists <= radius
    np.fill_diagonal(within, False)
    rows, cols = np.nonzero(within)
    for row, col in zip(rows.tolist(), cols.tolist()):
        adjacency[ids[row]].add(ids[col])
    return adjacency


def adjacency_for_range(positions: Dict[int, Tuple[float, float]],
                        radius: float) -> Adjacency:
    ids = sorted(positions)
    coords = np.array([positions[i] for i in ids], dtype=float)
    return adjacency_from_distances(ids, pairwise_distances(coords), radius)


def solve_radio_range(positions: Dict[int, Tuple[float, float]],
                      target_degree: float) -> Tuple[float, Adjacency]:
    """48-step bisection of the radius on the exact average degree."""
    ids = sorted(positions)
    coords = np.array([positions[i] for i in ids], dtype=float)
    span = float(np.max(coords) - np.min(coords))
    lo, hi = 1e-6, max(span * 2.0, 1.0)
    dists = pairwise_distances(coords)
    num_nodes = len(ids)
    for _ in range(48):
        mid = (lo + hi) / 2.0
        # the diagonal (distance 0) is always within range; subtract it
        if float((dists <= mid).sum() - num_nodes) / num_nodes < target_degree:
            lo = mid
        else:
            hi = mid
    return hi, adjacency_from_distances(ids, dists, hi)


def is_connected(adjacency: Adjacency, eligible: Iterable[int]) -> bool:
    """Whether *eligible* forms one component (depth-first search)."""
    eligible = set(eligible)
    if not eligible:
        return True
    start = next(iter(eligible))
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for neighbour in adjacency.get(current, ()):
            if neighbour in eligible and neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return len(seen) == len(eligible)


def random_deployment(num_nodes: int, average_degree: float,
                      area_size: float = 256.0, seed: int = 0,
                      max_attempts: int = 50):
    """``(positions, radius, adjacency, base_id, attempt)`` of the first
    connected placement drawn from the seeded stream."""
    rng = np.random.default_rng(seed)
    centre = (area_size / 2.0, area_size / 2.0)
    for attempt in range(max_attempts):
        xs = rng.uniform(0.0, area_size, size=num_nodes)
        ys = rng.uniform(0.0, area_size, size=num_nodes)
        positions = {i: (float(xs[i]), float(ys[i])) for i in range(num_nodes)}
        radius, adjacency = solve_radio_range(positions, average_degree)
        base_id = min(
            positions,
            key=lambda i: (positions[i][0] - centre[0]) ** 2
            + (positions[i][1] - centre[1]) ** 2,
        )
        if is_connected(adjacency, positions):
            return positions, radius, adjacency, base_id, attempt
    raise RuntimeError("no connected placement")


# ---------------------------------------------------------------------------
# shortest paths
# ---------------------------------------------------------------------------

def alive_rows(adjacency: Adjacency, alive: Set[int]) -> Dict[int, List[int]]:
    return {nid: sorted(n for n in neighbours if n in alive)
            for nid, neighbours in adjacency.items()}


def bfs_tables(adjacency: Adjacency, alive: Set[int],
               source: int) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Hop and parent dicts in discovery order: frontier order x sorted row,
    first discoverer wins."""
    rows = alive_rows(adjacency, alive)
    hops = {source: 0}
    parents = {source: source}
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        next_frontier: List[int] = []
        for current in frontier:
            for neighbour in rows.get(current, ()):
                if neighbour not in hops:
                    hops[neighbour] = depth
                    parents[neighbour] = current
                    next_frontier.append(neighbour)
        frontier = next_frontier
    return hops, parents


def shortest_path(adjacency: Adjacency, alive: Set[int],
                  source: int, target: int) -> Optional[List[int]]:
    _, parents = bfs_tables(adjacency, alive, source)
    if target not in parents:
        return None
    path = [target]
    while path[-1] != source:
        path.append(parents[path[-1]])
    return path[::-1]


# ---------------------------------------------------------------------------
# routing substrates
# ---------------------------------------------------------------------------

def routing_tree(adjacency: Adjacency, alive: Set[int], root: int,
                 tie_break_seed: int = 0):
    """``(parent, children, depth)`` of the queue BFS from *root*; each
    node's alive neighbours are visited by ``((n + seed) % 7, n)``."""
    rows = alive_rows(adjacency, alive)
    parent: Dict[int, Optional[int]] = {root: None}
    children: Dict[int, List[int]] = {root: []}
    depth = {root: 0}
    queue = deque([root])
    while queue:
        current = queue.popleft()
        neighbours = sorted(rows.get(current, ()),
                            key=lambda n: ((n + tie_break_seed) % 7, n))
        for neighbour in neighbours:
            if neighbour in parent:
                continue
            parent[neighbour] = current
            children.setdefault(current, []).append(neighbour)
            children.setdefault(neighbour, [])
            depth[neighbour] = depth[current] + 1
            queue.append(neighbour)
    return parent, children, depth


def ght_home(topology, substrate, key) -> int:
    """The alive node closest (Euclidean) to the key's hash location."""
    location = substrate.hash_location(key)
    return min(
        sorted(alive_ids(topology)),
        key=lambda nid: ((topology.nodes[nid].position[0] - location[0]) ** 2
                         + (topology.nodes[nid].position[1] - location[1]) ** 2) ** 0.5,
    )


def ring_distance(a: int, b: int, id_space: int) -> int:
    diff = abs(a - b)
    return min(diff, id_space - diff)


def dht_home(topology, substrate, key, id_space: int) -> int:
    """The alive node whose hashed id is nearest the key's hash on the ring."""
    key_hash = substrate.key_hash(key)
    return min(
        alive_ids(topology),
        key=lambda nid: (ring_distance(substrate._node_hashes[nid], key_hash, id_space),
                         nid),
    )


def furthest_root(adjacency: Adjacency, alive: Set[int], roots: List[int],
                  base_id: int) -> int:
    """The alive node maximizing its minimum hop count to *roots*
    (unreachable counts 0; ties go to the lowest id)."""
    distances = [bfs_tables(adjacency, alive, root)[0] for root in roots]
    best_node, best_score = base_id, -1
    for node_id in sorted(adjacency):
        if node_id not in alive:
            continue
        score = min(d.get(node_id, 0) for d in distances)
        if score > best_score or (score == best_score and node_id < best_node):
            best_node, best_score = node_id, score
    return best_node


def is_leaf(adjacency: Adjacency, alive: Set[int], node_id: int, base_id: int) -> bool:
    """Removing *node_id* keeps the alive network connected."""
    if node_id == base_id:
        return False
    return is_connected(adjacency, alive - {node_id})
