"""The object build of semantic routing tables: the test oracle.

One summary object per (node, attribute), a copy per child link and a merge
per edge, aggregated bottom-up node by node.  ``SemanticRoutingTable``
computes the same tables as arrays; ``test_semantic_array.py`` holds it to
this build row by row.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.network.message import MessageKind
from repro.network.simulator import NetworkSimulator
from repro.routing.semantic import SummaryFactory, ValueExtractor
from repro.routing.tree import RoutingTree
from repro.summaries.base import Summary


class ObjectSemanticRoutingTable:
    """Per-tree routing tables mapping (node, child, attribute) -> summary."""

    def __init__(
        self,
        tree: RoutingTree,
        attribute_factories: Dict[str, SummaryFactory],
        value_extractors: Dict[str, ValueExtractor],
    ) -> None:
        missing = set(attribute_factories) - set(value_extractors)
        if missing:
            raise ValueError(f"no value extractor for attributes: {sorted(missing)}")
        self.tree = tree
        self.attribute_factories = dict(attribute_factories)
        self.value_extractors = dict(value_extractors)
        # (node, child) -> attr -> Summary of the subtree rooted at child
        self._child_summaries: Dict[int, Dict[int, Dict[str, Summary]]] = {}
        # node -> attr -> Summary of the whole subtree rooted at node
        self._subtree_summaries: Dict[int, Dict[str, Summary]] = {}
        self.maintenance_bytes = 0
        self.build()

    def build(self, simulator: Optional[NetworkSimulator] = None) -> None:
        """Aggregate summaries bottom-up over the tree."""
        self._child_summaries = {node: {} for node in sorted(self.tree.parent)}
        self._subtree_summaries = {}
        self.maintenance_bytes = 0
        order = sorted(
            sorted(self.tree.parent), key=self.tree.depth_of, reverse=True
        )
        for node in order:
            own: Dict[str, Summary] = {}
            for attr, factory in self.attribute_factories.items():
                summary = factory()
                values = self.value_extractors[attr](node)
                if isinstance(values, (list, tuple)) and not self._is_point(attr, values):
                    summary.add_all(values)
                else:
                    summary.add(values)
                own[attr] = summary
            for child in self.tree.children_of(node):
                child_summaries = self._subtree_summaries[child]
                self._child_summaries[node][child] = {
                    attr: summary.copy() for attr, summary in child_summaries.items()
                }
                for attr, summary in child_summaries.items():
                    own[attr] = own[attr].merge(summary)
                report_bytes = sum(s.size_bytes() for s in child_summaries.values())
                self.maintenance_bytes += report_bytes
                if simulator is not None:
                    simulator.transfer(
                        [child, node], report_bytes or 1, MessageKind.TREE_MAINT
                    )
            self._subtree_summaries[node] = own

    @staticmethod
    def _is_point(attr: str, values: Any) -> bool:
        return (
            attr == "pos"
            and len(values) == 2
            and all(isinstance(v, (int, float)) for v in values)
        )

    def child_summary(self, node: int, child: int, attr: str) -> Summary:
        return self._child_summaries[node][child][attr]

    def subtree_summary(self, node: int, attr: str) -> Summary:
        return self._subtree_summaries[node][attr]

    def children_that_might_match(
        self, node: int, attr: str, probe: Callable[[Summary], bool]
    ) -> List[int]:
        matching = []
        for child in self.tree.children_of(node):
            summary = self._child_summaries[node].get(child, {}).get(attr)
            if summary is not None and probe(summary):
                matching.append(child)
        return matching

    def total_maintenance_bytes(self) -> int:
        return self.maintenance_bytes
