"""The multi-tree content-routing substrate of Mihaylov et al. [11].

This is the routing layer under the Innet join algorithms.  It maintains
several routing trees that share the same nodes: the first is rooted at the
base station, each successive tree is rooted at the node furthest (in hops)
from all existing roots (Section 2.2).  Static attributes are indexed with
semantic routing tables in every tree, and a content-routing search from a
source explores downwards into subtrees whose summaries might match, and for
completeness also up the tree -- a search ascending a subtree can descend from
each ancestor's other children but never goes upwards again.

The search returns, for each matching target, one or more candidate paths
annotated with each path node's hop distance to the base station (delta
encoded in the real system), which is exactly the information the pairwise
cost model of Section 3.1 needs to place join nodes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.message import MessageSizes
from repro.network.simulator import NetworkSimulator
from repro.network.topology import Topology
from repro.routing.paths import strip_cycles
from repro.routing.semantic import (
    SemanticRoutingTable, SummaryFactory, ValueExtractor, extract_values,
)
from repro.routing.tree import RoutingTree, shared_tree
from repro.summaries.base import Summary


@dataclass
class PairPath:
    """A candidate path between a searching node and a matching target."""

    source: int
    target: int
    path: List[int]
    hops_to_base: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.path or self.path[0] != self.source or self.path[-1] != self.target:
            raise ValueError("path must run from source to target")
        if self.hops_to_base and len(self.hops_to_base) != len(self.path):
            raise ValueError("hops_to_base must annotate every path node")


@dataclass
class ExplorationResult:
    """Outcome of a content-routing search from one source node."""

    source: int
    paths: Dict[int, List[PairPath]] = field(default_factory=dict)
    #: every tree edge the search crossed, in search order: (sender,
    #: receiver, length of the path vector the message carries)
    edges: List[Tuple[int, int, int]] = field(default_factory=list)


def _shortest_route(trees: Sequence[RoutingTree], source: int,
                    target: int) -> Optional[List[int]]:
    """The shortest cycle-free tree route between two nodes (the first tree
    wins ties), or ``None`` if no tree covers both."""
    routes = [strip_cycles(tree.route(source, target)) for tree in trees
              if tree.covers(source) and tree.covers(target)]
    return min(routes, key=len, default=None)


class MultiTreeSubstrate:
    """Multiple overlapping routing trees with semantic routing tables."""

    def __init__(
        self,
        topology: Topology,
        num_trees: int = 3,
        indexed_attributes: Optional[Dict[str, SummaryFactory]] = None,
        value_extractors: Optional[Dict[str, ValueExtractor]] = None,
        sizes: Optional[MessageSizes] = None,
    ) -> None:
        if num_trees < 1:
            raise ValueError("need at least one tree")
        self.topology = topology
        self.num_trees = num_trees
        self.sizes = sizes or MessageSizes()
        self.trees: List[RoutingTree] = []
        self.tables: List[Optional[SemanticRoutingTable]] = []
        #: (source, target) -> best stripped route; cleared on tree repair.
        self._best_routes: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        #: :meth:`hops_to_base_array`, once built; cleared on tree repair
        self._hops_array: Optional[np.ndarray] = None
        self._build_trees()
        self._indexed_attributes = indexed_attributes or {}
        self._value_extractors = value_extractors or {}
        if self._indexed_attributes:
            self.index_attributes(self._indexed_attributes, self._value_extractors)
        else:
            self.tables = [None] * len(self.trees)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_trees(self) -> None:
        """Tree *i* is the deployment's shared tree of (root, seed *i*)."""
        self.trees = [shared_tree(self.topology)]
        for index in range(1, self.num_trees):
            root = self._furthest_from_existing_roots()
            self.trees.append(shared_tree(self.topology, root, tie_break_seed=index))

    def _furthest_from_existing_roots(self) -> int:
        """Pick the node maximizing its minimum hop distance to existing roots."""
        cache = self.topology.routing_cache
        # Unreachable nodes score 0, dead nodes are excluded, and argmax
        # takes the first maximum: ties go to the lowest id.
        score = np.minimum.reduce([
            np.maximum(cache.hops_array(tree.root), 0) for tree in self.trees
        ]).astype(np.int64)
        score[~cache.alive_mask] = -1
        if int(score.max()) < 0:
            return self.topology.base_id
        return int(np.argmax(score))

    def index_attributes(
        self,
        attribute_factories: Dict[str, SummaryFactory],
        value_extractors: Dict[str, ValueExtractor],
        simulator: Optional[NetworkSimulator] = None,
    ) -> None:
        """Build semantic routing tables for the given attributes in every tree.

        With a *simulator*, each table charges its per-edge reports as it
        builds.
        """
        self._indexed_attributes = dict(attribute_factories)
        self._value_extractors = dict(value_extractors)
        self._build_tables(simulator)

    def _build_tables(self, simulator: Optional[NetworkSimulator] = None) -> None:
        """One table per tree over values extracted once, for all trees."""
        covered = sorted(set().union(*(tree.parent for tree in self.trees)))
        values = extract_values(self._indexed_attributes, self._value_extractors, covered)
        self.tables = [
            SemanticRoutingTable(
                tree, self._indexed_attributes, self._value_extractors,
                simulator=simulator, values=values,
            )
            for tree in self.trees
        ]

    @property
    def primary_tree(self) -> RoutingTree:
        return self.trees[0]

    def hops_to_base(self, node_id: int) -> int:
        """Hop count to the base station along the primary routing tree."""
        return self.primary_tree.depth_of(node_id)

    def hops_to_base_array(self) -> np.ndarray:
        """:meth:`hops_to_base` of every node, indexed by node id (0 where
        the primary tree does not reach)."""
        if self._hops_array is None:
            depth = self.primary_tree.depth
            hops = np.zeros(max(self.topology.nodes) + 1, dtype=np.int64)
            hops[np.fromiter(depth.keys(), dtype=np.int64, count=len(depth))] = (
                np.fromiter(depth.values(), dtype=np.int64, count=len(depth)))
            self._hops_array = hops
        return self._hops_array

    def path_to_base(self, node_id: int) -> List[int]:
        return self.primary_tree.path_to_root(node_id)

    def base_path(self, node_id: int) -> Tuple[int, ...]:
        """:meth:`path_to_base` as the primary tree's read-only tuple."""
        return self.primary_tree.root_path(node_id)

    # ------------------------------------------------------------------
    # point-to-point routing
    # ------------------------------------------------------------------
    def best_route(self, source: int, target: int) -> List[int]:
        """Shortest route among the per-tree routes between two nodes.

        Memoized per pair until a failure repair changes the trees.
        """
        return list(self._best_route((source, target)))

    def best_routes(self, pairs: Sequence[Tuple[int, int]]) -> List[Tuple[int, ...]]:
        """:meth:`best_route` of every pair, as the memo's read-only tuples."""
        memo = self._best_routes
        return [memo.get(pair) or self._best_route(pair) for pair in pairs]

    def _best_route(self, key: Tuple[int, int]) -> Tuple[int, ...]:
        cached = self._best_routes.get(key)
        if cached is None:
            best = _shortest_route(self.trees, *key)
            if best is None:
                raise ValueError(f"no route between {key[0]} and {key[1]}")
            cached = self._best_routes[key] = tuple(best)
        return cached

    # ------------------------------------------------------------------
    # content-routing search
    # ------------------------------------------------------------------
    def find_matches(
        self,
        source: int,
        attr: str,
        summary_probe: Callable[[Summary], bool],
        node_matches: Callable[[int], bool],
        max_trees: Optional[int] = None,
    ) -> ExplorationResult:
        """Search every tree for nodes whose *attr* matches.

        ``summary_probe`` prunes subtrees (given the child-link summary),
        ``node_matches`` is the exact test evaluated at each visited node.
        The search charges nothing: it records, in search order, every tree
        edge it crosses (one exploration message each, sized by the path
        vector it carries) in :attr:`ExplorationResult.edges`, and the
        caller ships them.  The exploration message already carries the path
        vector, so the discovered target can nominate a join node without a
        separate reply (Section 3.2).  A search is a pure function of the
        substrate and the two closures, so callers that can name what the
        closures depend on memoise its result on the deployment and replay
        the edges for every later run.
        """
        result = ExplorationResult(source=source)
        for tree, table in zip(self.trees[:max_trees], self.tables):
            if table is None:
                raise RuntimeError(
                    "content search requires indexed attributes; call index_attributes()"
                )
            if not tree.covers(source):
                continue
            self._explore_tree(
                tree, table, source, attr, summary_probe, node_matches, result)
        return result

    # -- internals ---------------------------------------------------------
    def _explore_tree(
        self,
        tree: RoutingTree,
        table: SemanticRoutingTable,
        source: int,
        attr: str,
        summary_probe: Callable[[Summary], bool],
        node_matches: Callable[[int], bool],
        result: ExplorationResult,
    ) -> None:
        hops_map = self.primary_tree.depth
        edges = result.edges

        def record(target: int, path: List[int]) -> None:
            clean = strip_cycles(path)
            result.paths.setdefault(target, []).append(PairPath(
                source=source,
                target=target,
                path=clean,
                hops_to_base=[hops_map.get(n, 0) for n in clean],
            ))

        def descend(node: int, path: List[int]) -> None:
            if node != source and node_matches(node):
                record(node, path)
            for child in table.children_that_might_match(node, attr, summary_probe):
                if child in path:
                    continue
                edges.append((node, child, len(path)))
                descend(child, path + [child])

        # Downwards from the source itself.
        descend(source, [source])

        # Upwards: climb ancestors; at each ancestor, descend its other children.
        path = [source]
        node = source
        while tree.parent_of(node) is not None:
            parent = tree.parent_of(node)
            edges.append((node, parent, len(path)))
            path = path + [parent]
            if node_matches(parent):
                record(parent, path)
            for sibling in table.children_that_might_match(parent, attr, summary_probe):
                if sibling == node or sibling in path:
                    continue
                edges.append((parent, sibling, len(path)))
                descend(sibling, path + [sibling])
            node = parent

    # ------------------------------------------------------------------
    # path quality metrics (Appendix C)
    # ------------------------------------------------------------------
    def paths_for_pairs(
        self, pairs: Sequence[Tuple[int, int]], num_trees: Optional[int] = None
    ) -> Dict[Tuple[int, int], List[int]]:
        """Best per-pair route using only the first *num_trees* trees."""
        out: Dict[Tuple[int, int], List[int]] = {}
        for source, target in pairs:
            best = _shortest_route(self.trees[:num_trees], source, target)
            if best is not None:
                out[(source, target)] = best
        return out

    # ------------------------------------------------------------------
    # failure repair
    # ------------------------------------------------------------------
    def copy(self) -> "MultiTreeSubstrate":
        """A private copy to repair (:meth:`repair_after_failure` mutates
        the trees, which may be the deployment's shared ones)."""
        twin = copy.copy(self)
        twin.trees = [tree.copy() for tree in self.trees]
        twin._best_routes = {}
        twin._hops_array = None
        return twin

    def repair_after_failure(
        self, failed: int, simulator: Optional[NetworkSimulator] = None
    ) -> Dict[int, List[int]]:
        """Repair every tree after a permanent node failure, in place.

        Returns a mapping tree-index -> nodes that could not be re-attached.
        """
        stranded: Dict[int, List[int]] = {}
        self._best_routes = {}
        self._hops_array = None
        for index, tree in enumerate(self.trees):
            lost = tree.repair_after_failure(failed, simulator=simulator)
            if lost:
                stranded[index] = lost
        # Rebuild semantic tables over the repaired trees.
        if self._indexed_attributes and any(t is not None for t in self.tables):
            self._build_tables()
        return stranded
