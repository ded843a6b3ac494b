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

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.message import MessageKind, MessageSizes
from repro.network.simulator import NetworkSimulator
from repro.network.topology import Topology
from repro.routing.paths import strip_cycles
from repro.routing.semantic import (
    SemanticRoutingTable, SummaryFactory, ValueExtractor, extract_values,
)
from repro.routing.tree import RoutingTree
from repro.summaries.base import Summary


@dataclass
class PairPath:
    """A candidate path between a searching node and a matching target."""

    source: int
    target: int
    path: List[int]
    hops_to_base: List[int] = field(default_factory=list)
    tree_index: int = 0

    @property
    def length(self) -> int:
        return len(self.path) - 1

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
    edges_traversed: int = 0
    messages_sent: int = 0

    def targets(self) -> List[int]:
        return sorted(self.paths)


class MultiTreeSubstrate:
    """Multiple overlapping routing trees with semantic routing tables."""

    def __init__(
        self,
        topology: Topology,
        num_trees: int = 3,
        indexed_attributes: Optional[Dict[str, SummaryFactory]] = None,
        value_extractors: Optional[Dict[str, ValueExtractor]] = None,
        simulator: Optional[NetworkSimulator] = None,
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
        self._build_trees()
        self._indexed_attributes = indexed_attributes or {}
        self._value_extractors = value_extractors or {}
        if self._indexed_attributes:
            self.index_attributes(
                self._indexed_attributes, self._value_extractors, simulator
            )
        else:
            self.tables = [None] * len(self.trees)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_trees(self) -> None:
        self.trees = [RoutingTree(self.topology, root=self.topology.base_id)]
        for index in range(1, self.num_trees):
            root = self._furthest_from_existing_roots()
            self.trees.append(
                RoutingTree(self.topology, root=root, tie_break_seed=index)
            )

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

    def path_to_base(self, node_id: int) -> List[int]:
        return self.primary_tree.path_to_root(node_id)

    def construction_traffic(self, simulator: NetworkSimulator) -> int:
        """Charge the construction flood of every tree."""
        transmissions = 0
        for tree in self.trees:
            transmissions += tree.construction_traffic(simulator)
        return transmissions

    # ------------------------------------------------------------------
    # point-to-point routing
    # ------------------------------------------------------------------
    def best_route(self, source: int, target: int) -> List[int]:
        """Shortest route among the per-tree routes between two nodes.

        Memoized per pair until a failure repair changes the trees.
        """
        key = (source, target)
        cached = self._best_routes.get(key)
        if cached is not None:
            return list(cached)
        best: Optional[List[int]] = None
        for tree in self.trees:
            if not (tree.covers(source) and tree.covers(target)):
                continue
            route = strip_cycles(tree.route(source, target))
            if best is None or len(route) < len(best):
                best = route
        if best is None:
            raise ValueError(f"no route between {source} and {target}")
        self._best_routes[key] = tuple(best)
        return best

    def route_length(self, source: int, target: int) -> int:
        return len(self.best_route(source, target)) - 1

    # ------------------------------------------------------------------
    # content-routing search
    # ------------------------------------------------------------------
    def find_matches(
        self,
        source: int,
        attr: str,
        summary_probe: Callable[[Summary], bool],
        node_matches: Callable[[int], bool],
        simulator: Optional[NetworkSimulator] = None,
        max_trees: Optional[int] = None,
        charge_replies: bool = False,
        cache_token: Optional[Tuple] = None,
    ) -> ExplorationResult:
        """Search every tree for nodes whose *attr* matches.

        ``summary_probe`` prunes subtrees (given the child-link summary),
        ``node_matches`` is the exact test evaluated at each visited node.
        If *simulator* is given, one exploration message is charged per tree
        edge traversed.  The exploration message already carries the path
        vector, so the discovered target can nominate a join node without a
        separate reply (Section 3.2); set ``charge_replies`` to also charge an
        explicit reversed-path reply per discovered target.

        ``cache_token`` (optional) asserts that the probe/match closures are a
        pure function of the token, the query identity and the deployment.
        The traversal (edges visited and paths found) is then memoized on the
        topology, keyed on its routing epoch, and repeat searches replay the
        recorded traffic charges instead of re-walking the trees.  The trees
        themselves are rebuilt deterministically from the topology, so
        replayed results are identical across substrate instances.
        """
        tree_count = len(self.trees) if max_trees is None else min(max_trees, len(self.trees))
        cache = None
        key = None
        if cache_token is not None:
            cache = self.topology.__dict__.setdefault("_exploration_cache", {})
            if len(cache) > 4096:
                # Long-lived (memoized) topologies must not accumulate
                # traversal recordings without bound across figure sweeps.
                cache.clear()
                self.topology.__dict__.get("_exploration_pins", {}).clear()
            key = (
                self.topology.routing_epoch, self.num_trees, tree_count,
                charge_replies, cache_token,
            )
            entry = cache.get(key)
            if entry is not None:
                return self._replay_exploration(source, entry, simulator, charge_replies)
        result = ExplorationResult(source=source)
        recording: Optional[List[Tuple[int, int, int]]] = (
            [] if cache is not None else None
        )
        for tree_index in range(tree_count):
            tree = self.trees[tree_index]
            table = self.tables[tree_index]
            if table is None:
                raise RuntimeError(
                    "content search requires indexed attributes; call index_attributes()"
                )
            if not tree.covers(source):
                continue
            self._explore_tree(
                tree, table, tree_index, source, attr, summary_probe, node_matches,
                result, simulator, charge_replies, recording,
            )
        if cache is not None:
            cache[key] = {
                "edges": recording,
                "paths": {
                    target: [(tuple(p.path), p.tree_index) for p in paths]
                    for target, paths in result.paths.items()
                },
            }
        return result

    def _replay_exploration(
        self,
        source: int,
        entry: Dict,
        simulator: Optional[NetworkSimulator],
        charge_replies: bool,
    ) -> ExplorationResult:
        """Rebuild a memoized exploration, re-charging its traffic."""
        result = ExplorationResult(source=source)
        edges = entry["edges"]
        result.edges_traversed = len(edges)
        if simulator is not None:
            explore_size = self.sizes.explore
            for a, b, path_len in edges:
                simulator.transfer([a, b], explore_size(path_len), MessageKind.EXPLORE)
            result.messages_sent += len(edges)
        hops_map = self.primary_tree.depth
        for target, paths in entry["paths"].items():
            rebuilt = []
            for path, tree_index in paths:
                clean = list(path)
                rebuilt.append(PairPath(
                    source=source,
                    target=target,
                    path=clean,
                    hops_to_base=[hops_map.get(n, 0) for n in clean],
                    tree_index=tree_index,
                ))
                if simulator is not None and charge_replies:
                    simulator.transfer(
                        list(reversed(clean)),
                        self.sizes.explore(len(clean)),
                        MessageKind.EXPLORE_REPLY,
                    )
                    result.messages_sent += 1
            result.paths[target] = rebuilt
        return result

    def find_equality_matches(
        self,
        source: int,
        attr: str,
        value: Any,
        node_value: Callable[[int], Any],
        simulator: Optional[NetworkSimulator] = None,
    ) -> ExplorationResult:
        """Convenience wrapper for equality (join-key) searches."""
        return self.find_matches(
            source,
            attr,
            summary_probe=lambda summary: summary.might_contain(value),
            node_matches=lambda node: node != source and node_value(node) == value,
            simulator=simulator,
        )

    # -- internals ---------------------------------------------------------
    def _explore_tree(
        self,
        tree: RoutingTree,
        table: SemanticRoutingTable,
        tree_index: int,
        source: int,
        attr: str,
        summary_probe: Callable[[Summary], bool],
        node_matches: Callable[[int], bool],
        result: ExplorationResult,
        simulator: Optional[NetworkSimulator],
        charge_replies: bool = False,
        recording: Optional[List[Tuple[int, int, int]]] = None,
    ) -> None:
        hops_map = self.primary_tree.depth

        def record(target: int, path: List[int]) -> None:
            clean = strip_cycles(path)
            pair = PairPath(
                source=source,
                target=target,
                path=clean,
                hops_to_base=[hops_map.get(n, 0) for n in clean],
                tree_index=tree_index,
            )
            result.paths.setdefault(target, []).append(pair)
            if simulator is not None and charge_replies:
                # Reply travels the reversed path vector back to the source.
                simulator.transfer(
                    list(reversed(clean)),
                    self.sizes.explore(len(clean)),
                    MessageKind.EXPLORE_REPLY,
                )
                result.messages_sent += 1

        def traverse_edge(a: int, b: int, path_len: int) -> None:
            result.edges_traversed += 1
            if recording is not None:
                recording.append((a, b, path_len))
            if simulator is not None:
                simulator.transfer(
                    [a, b], self.sizes.explore(path_len), MessageKind.EXPLORE
                )
                result.messages_sent += 1

        def descend(node: int, path: List[int]) -> None:
            if node != source and node_matches(node):
                record(node, path)
            for child in table.children_that_might_match(node, attr, summary_probe):
                if child in path:
                    continue
                traverse_edge(node, child, len(path))
                descend(child, path + [child])

        # Downwards from the source itself.
        descend(source, [source])

        # Upwards: climb ancestors; at each ancestor, descend its other children.
        path = [source]
        node = source
        while tree.parent_of(node) is not None:
            parent = tree.parent_of(node)
            traverse_edge(node, parent, len(path))
            path = path + [parent]
            if node_matches(parent):
                record(parent, path)
            for sibling in table.children_that_might_match(parent, attr, summary_probe):
                if sibling == node or sibling in path:
                    continue
                traverse_edge(parent, sibling, len(path))
                descend(sibling, path + [sibling])
            node = parent

    # ------------------------------------------------------------------
    # path quality metrics (Appendix C)
    # ------------------------------------------------------------------
    def paths_for_pairs(
        self, pairs: Sequence[Tuple[int, int]], num_trees: Optional[int] = None
    ) -> Dict[Tuple[int, int], List[int]]:
        """Best per-pair route using only the first *num_trees* trees."""
        count = len(self.trees) if num_trees is None else min(num_trees, len(self.trees))
        out: Dict[Tuple[int, int], List[int]] = {}
        for source, target in pairs:
            best: Optional[List[int]] = None
            for tree in self.trees[:count]:
                if not (tree.covers(source) and tree.covers(target)):
                    continue
                route = strip_cycles(tree.route(source, target))
                if best is None or len(route) < len(best):
                    best = route
            if best is not None:
                out[(source, target)] = best
        return out

    # ------------------------------------------------------------------
    # failure repair
    # ------------------------------------------------------------------
    def repair_after_failure(
        self, failed: int, simulator: Optional[NetworkSimulator] = None
    ) -> Dict[int, List[int]]:
        """Repair every tree after a permanent node failure.

        Returns a mapping tree-index -> nodes that could not be re-attached.
        """
        stranded: Dict[int, List[int]] = {}
        self._best_routes = {}
        for index, tree in enumerate(self.trees):
            lost = tree.repair_after_failure(failed, simulator=simulator)
            if lost:
                stranded[index] = lost
        # Rebuild semantic tables over the repaired trees.
        if self._indexed_attributes and any(t is not None for t in self.tables):
            self._build_tables()
        return stranded
