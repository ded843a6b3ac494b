"""Standard routing-tree construction and tree routing.

This is the substrate every other strategy builds on: the base station floods
a tree-construction beacon, each node picks a parent one hop closer to the
root (the algorithm of Madden et al. [10]), and every node afterwards knows
its depth, parent and children (Section 2.1, Appendix C).  Messages to the
root simply climb parents; messages between arbitrary nodes climb to the
lowest common ancestor and descend.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.network.message import MessageKind
from repro.network.simulator import NetworkSimulator
from repro.network.topology import Topology


class RoutingTree:
    """A rooted spanning tree over the alive nodes of a topology."""

    def __init__(self, topology: Topology, root: Optional[int] = None,
                 tie_break_seed: int = 0) -> None:
        self.topology = topology
        self.root = topology.base_id if root is None else root
        if self.root not in topology.nodes:
            raise KeyError(f"unknown root {self.root}")
        self.tie_break_seed = tie_break_seed
        self.parent: Dict[int, Optional[int]] = {}
        self.children: Dict[int, List[int]] = {}
        self.depth: Dict[int, int] = {}
        # Memoized parent climbs; cleared whenever the tree structure
        # changes (build / repair_after_failure).
        self._paths_to_root: Dict[int, tuple] = {}
        self.build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self) -> None:
        """(Re)build the tree with a level-synchronous BFS from the root.

        Each level gathers every alive frontier neighbour, orders them by
        (frontier position, (id + tie_break_seed) % 7, id) and keeps each
        node's first discoverer as its parent.  Ties between candidate parents
        at equal depth are thus broken by node id, shifted by
        ``tie_break_seed`` so different trees over the same topology do not
        always pick the same parents.  Children lists are appended in
        discovery order.
        """
        self.parent = {self.root: None}
        self.children = {self.root: []}
        self.depth = {self.root: 0}
        self._paths_to_root = {}
        cache = self.topology.routing_cache
        indptr, indices, mask = cache.indptr, cache.indices, cache.alive_mask
        seed = self.tie_break_seed
        discovered = np.zeros(mask.shape[0], dtype=bool)
        discovered[self.root] = True
        frontier = np.asarray([self.root], dtype=np.int64)
        levels: List[np.ndarray] = []
        level_adopters: List[np.ndarray] = []
        while frontier.size:
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            offsets = np.cumsum(counts) - counts
            within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
            candidates = indices[np.repeat(starts, counts) + within].astype(np.int64)
            sources = np.repeat(frontier, counts)
            frontier_pos = np.repeat(np.arange(frontier.shape[0]), counts)
            keep = mask[candidates] & ~discovered[candidates]
            candidates = candidates[keep]
            sources = sources[keep]
            frontier_pos = frontier_pos[keep]
            if candidates.size == 0:
                break
            visit = np.lexsort(
                (candidates, (candidates + seed) % 7, frontier_pos)
            )
            candidates = candidates[visit]
            sources = sources[visit]
            _, first = np.unique(candidates, return_index=True)
            first.sort()
            frontier = candidates[first]
            discovered[frontier] = True
            levels.append(frontier)
            level_adopters.append(sources[first])
        if not levels:
            return
        nodes = np.concatenate(levels).tolist()
        parents = np.concatenate(level_adopters).tolist()
        depths = np.repeat(np.arange(1, len(levels) + 1),
                           [level.size for level in levels]).tolist()
        # Bulk fills in discovery order keep the key order of the
        # node-by-node BFS, and appending in that order its children lists.
        self.parent.update(zip(nodes, parents))
        self.depth.update(zip(nodes, depths))
        children = self.children
        children.update(zip(nodes, [[] for _ in nodes]))
        for node, chosen_parent in zip(nodes, parents):
            children[chosen_parent].append(node)

    def copy(self) -> "RoutingTree":
        """A private copy to repair (:meth:`repair_after_failure` mutates)."""
        twin = copy.copy(self)
        twin.parent = dict(self.parent)
        twin.depth = dict(self.depth)
        twin.children = {node: list(kids) for node, kids in self.children.items()}
        twin._paths_to_root = {}
        return twin

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def covers(self, node_id: int) -> bool:
        return node_id in self.parent

    def depth_of(self, node_id: int) -> int:
        return self.depth[node_id]

    def parent_of(self, node_id: int) -> Optional[int]:
        return self.parent[node_id]

    def children_of(self, node_id: int) -> List[int]:
        return list(self.children.get(node_id, []))

    def subtree_nodes(self, node_id: int) -> List[int]:
        """Every node in the subtree rooted at *node_id* (inclusive)."""
        out: List[int] = []
        stack = [node_id]
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(self.children.get(current, []))
        return out

    def path_to_root(self, node_id: int) -> List[int]:
        """Path from a node up to the root (inclusive of both), as a fresh
        list the caller may mutate."""
        return list(self.root_path(node_id))

    def root_path(self, node_id: int) -> Tuple[int, ...]:
        """:meth:`path_to_root` as the memo's read-only tuple (the climb is
        memoized per node and invalidated on build/repair)."""
        cached = self._paths_to_root.get(node_id)
        if cached is None:
            if node_id not in self.parent:
                raise KeyError(f"node {node_id} is not covered by the tree")
            path = [node_id]
            while self.parent[path[-1]] is not None:
                path.append(self.parent[path[-1]])
            cached = tuple(path)
            self._paths_to_root[node_id] = cached
        return cached

    def path_from_root(self, node_id: int) -> List[int]:
        return list(reversed(self.path_to_root(node_id)))

    def route(self, source: int, target: int) -> List[int]:
        """Tree route: climb to the lowest common ancestor, then descend.

        Not memoised: :meth:`MultiTreeSubstrate.best_route
        <repro.routing.multitree.MultiTreeSubstrate.best_route>` keeps the
        winning route per pair, on a substrate shared by the deployment.
        """
        up = self.path_to_root(source)
        down = self.path_to_root(target)
        up_set = {node: index for index, node in enumerate(up)}
        lca = None
        for node in down:
            if node in up_set:
                lca = node
                break
        if lca is None:  # different components; should not happen on one tree
            raise ValueError(f"no common ancestor between {source} and {target}")
        ascent = up[: up_set[lca] + 1]
        descent = list(reversed(down[: down.index(lca)]))
        return ascent + descent

    # ------------------------------------------------------------------
    # repair (limited-exploration repair of [11], Section 7)
    # ------------------------------------------------------------------
    def repair_after_failure(self, failed: int,
                             simulator: Optional[NetworkSimulator] = None,
                             beacon_bytes: int = 13) -> List[int]:
        """Re-attach the orphaned subtree after *failed* dies.

        Each orphan tries to pick a new parent among its alive neighbours that
        are still connected to the root, preferring the smallest depth.
        Returns the list of nodes that could not be re-attached.
        """
        if failed not in self.parent:
            return []
        self._paths_to_root = {}
        orphans = set(self.subtree_nodes(failed))
        # Remove the failed subtree from the structure.
        failed_parent = self.parent.get(failed)
        if failed_parent is not None and failed in self.children.get(failed_parent, []):
            self.children[failed_parent].remove(failed)
        for node in orphans:
            self.parent.pop(node, None)
            self.children.pop(node, None)
            self.depth.pop(node, None)
        orphans.discard(failed)

        # Greedily re-attach orphans whose neighbours are still in the tree.
        unattached: Set[int] = set(orphans)
        progress = True
        while progress and unattached:
            progress = False
            for node in sorted(unattached):
                if not self.topology.nodes[node].alive:
                    unattached.discard(node)
                    progress = True
                    break
                candidates = [
                    n for n in self.topology.neighbors(node) if n in self.parent
                ]
                if not candidates:
                    continue
                new_parent = min(candidates, key=lambda n: (self.depth[n], n))
                self.parent[node] = new_parent
                self.children.setdefault(new_parent, []).append(node)
                self.children.setdefault(node, [])
                self.depth[node] = self.depth[new_parent] + 1
                if simulator is not None:
                    # One local broadcast to announce the new parent choice.
                    simulator.broadcast(node, beacon_bytes, MessageKind.TREE_MAINT)
                unattached.discard(node)
                progress = True
                break
        return sorted(unattached)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoutingTree(root={self.root}, nodes={len(self.parent)})"


def shared_tree(topology: Topology, root: Optional[int] = None,
                tie_break_seed: int = 0) -> RoutingTree:
    """The (*root*, *tie_break_seed*) tree of *topology*'s current epoch,
    shared through its deployment memo: read-only, copy before repairing."""
    root = topology.base_id if root is None else root
    return topology.routing_cache.memo.get(
        "tree", (root, tie_break_seed),
        lambda: RoutingTree(topology, root=root, tie_break_seed=tie_break_seed),
    )
