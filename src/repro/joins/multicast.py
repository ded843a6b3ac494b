"""Network-level resource sharing: multicast trees and path collapsing.

Appendix E: for each producer ``p`` we build a multicast tree rooted at ``p``
from the paths established between ``p`` and its join nodes.  Internal nodes
with more than one child keep per-tree state so path vectors can be
compressed.  Path collapsing additionally merges two node-disjoint paths from
``p`` whenever a link exists between a node of one path and a node of the
other, shortening the tree.  Building an optimal multicast tree is as hard as
set cover (Theorem 1), so both constructions are lightweight heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.network.topology import Topology


@dataclass
class MulticastTree:
    """A tree rooted at a producer, reaching all of its join nodes."""

    root: int
    parent: Dict[int, int] = field(default_factory=dict)  # child -> parent
    destinations: Set[int] = field(default_factory=set)

    @property
    def nodes(self) -> Set[int]:
        return {self.root} | set(self.parent)

    @property
    def edge_count(self) -> int:
        """Transmissions needed to push one tuple to every destination."""
        return len(self.parent)

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The (parent, child) transmission edges as flat ``(senders,
        receivers)`` arrays, in :attr:`parent` order.

        Cached once the tree is built (the cache refreshes if edges are
        added after the first call, guarded by the edge count), so
        :meth:`~repro.network.batch.CycleBatcher.ship_edges` can ship a whole
        tree without per-edge Python calls.  Callers must not mutate the
        returned arrays.
        """
        cached = self.__dict__.get("_edge_arrays_cache")
        if cached is None or cached[0].size != len(self.parent):
            if self.parent:
                receivers = np.fromiter(
                    self.parent.keys(), count=len(self.parent), dtype=np.int64
                )
                senders = np.fromiter(
                    self.parent.values(), count=len(self.parent), dtype=np.int64
                )
            else:
                senders = np.zeros(0, dtype=np.int64)
                receivers = np.zeros(0, dtype=np.int64)
            cached = (senders, receivers)
            self.__dict__["_edge_arrays_cache"] = cached
        return cached

    def maintenance_bytes(self) -> int:
        """Bytes to push the tree description into the network when it changes:
        a two-byte entry per node."""
        return 2 * len(self.nodes)


def build_multicast_tree(
    root: int, paths: Sequence[Sequence[int]]
) -> MulticastTree:
    """Union of root-anchored paths, with shared prefixes transmitted once.

    Every path must start at *root*.  When two paths to different join nodes
    share a prefix, the shared hops appear once in the tree, which is exactly
    the saving the ``cm`` variant gets over plain Innet.
    """
    tree = MulticastTree(root=root)
    for path in paths:
        if not path:
            continue
        if path[0] != root:
            raise ValueError("every multicast path must start at the tree root")
        tree.destinations.add(path[-1])
        for parent, child in zip(path, path[1:]):
            existing = tree.parent.get(child)
            if existing is None:
                tree.parent[child] = parent
            # If the child is already reachable we keep the first parent: the
            # tree stays a tree and the duplicate hop is simply not added.
    return tree


def tree_cost(tree: MulticastTree) -> int:
    """Transmissions per tuple delivered to all destinations."""
    return tree.edge_count


# ---------------------------------------------------------------------------
# Path collapsing (Algorithms 2-3, simplified to its effect on the tree)
# ---------------------------------------------------------------------------

#: A collapsed tree is adopted only when this many times cheaper (10 %).
COLLAPSE_IMPROVEMENT = 1.1

def collapse_paths(
    topology: Topology,
    root: int,
    paths: Sequence[Sequence[int]],
) -> List[List[int]]:
    """Collapse node-disjoint paths that pass within one radio hop.

    For every pair of paths ``P1`` (to ``j1``) and ``P2`` (to ``j2``) we look
    for a link between some ``n1`` on ``P1`` and ``n2`` on ``P2``; if
    re-routing the tail of ``P1`` through ``n2`` shortens the combined tree,
    the collapse is applied.  Mirroring PathCollapseApply, a new tree is only
    adopted when it is at least ``COLLAPSE_IMPROVEMENT`` times cheaper than
    the current one (the paper uses 10 %), because pushing an updated
    multicast tree into the network has its own cost.
    """
    collapsed = [list(path) for path in paths]
    if len(collapsed) < 2:
        return collapsed

    # Collapsing is deterministic in (connectivity, root, paths) and the same
    # producer keeps the same delivery paths across runs, so the result is
    # memoized per topology (keyed on its routing epoch).
    cache = topology.__dict__.setdefault("_collapse_cache", {})
    if len(cache) > 4096:  # bound memory on long-lived shared topologies
        cache.clear()
    cache_key = (
        topology.routing_epoch, root, tuple(tuple(path) for path in paths),
    )
    cached = cache.get(cache_key)
    if cached is not None:
        return [list(path) for path in cached]

    improved = True
    while improved:
        improved = False
        current_cost = tree_cost(build_multicast_tree(root, collapsed))
        for i in range(len(collapsed)):
            for k in range(len(collapsed)):
                if i == k:
                    continue
                candidate = _try_collapse(topology, collapsed[i], collapsed[k])
                if candidate is None:
                    continue
                trial = list(collapsed)
                trial[i] = candidate
                trial_cost = tree_cost(build_multicast_tree(root, trial))
                if trial_cost * COLLAPSE_IMPROVEMENT <= current_cost:
                    collapsed = trial
                    improved = True
                    break
            if improved:
                break
    cache[cache_key] = tuple(tuple(path) for path in collapsed)
    return collapsed


def _try_collapse(
    topology: Topology, path_a: List[int], path_b: List[int]
) -> Optional[List[int]]:
    """Reroute *path_a* through the closest crossing point with *path_b*.

    Returns a new, shorter path to ``path_a``'s destination or ``None``.
    """
    if len(path_a) < 3 or len(path_b) < 2:
        return None
    destination = path_a[-1]
    nodes_b = {node: index for index, node in enumerate(path_b)}
    best: Optional[List[int]] = None
    for index_a in range(1, len(path_a) - 1):
        node_a = path_a[index_a]
        for neighbour in topology.neighbors(node_a):
            index_b = nodes_b.get(neighbour)
            if index_b is None or neighbour == destination:
                continue
            # New route: along path_b to the crossing neighbour, hop to node_a,
            # then continue along path_a's tail.
            candidate = path_b[: index_b + 1] + [node_a] + path_a[index_a + 1 :]
            deduped = _dedupe(candidate)
            if deduped[-1] != destination:
                continue
            if best is None or len(deduped) < len(best):
                best = deduped
    if best is not None and len(best) < len(path_a):
        return best
    return None


def _dedupe(path: List[int]) -> List[int]:
    seen: Set[int] = set()
    out: List[int] = []
    for node in path:
        if node in seen:
            # Cut the loop: drop everything after the first occurrence.
            while out and out[-1] != node:
                seen.discard(out.pop())
            continue
        seen.add(node)
        out.append(node)
    return out
