"""The object build of semantic routing tables: the test oracle.

One summary object per (node, attribute), a copy per child link and a merge
per edge, aggregated bottom-up node by node, with the object summaries of
``tests/summaries/object_summaries.py`` made from each attribute's prototype.
``SemanticRoutingTable`` computes the same tables as arrays;
``test_semantic_array.py`` holds it to this build row by row, reading the
array table's rows with :func:`subtree_row` and :func:`child_row`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.routing.semantic import SemanticRoutingTable, SummaryFactory, ValueExtractor
from repro.routing.tree import RoutingTree
from repro.summaries import BloomFilterSummary, Summary
from tests.summaries.object_summaries import ObjectBloomFilter, ObjectRectSummary, empty_like


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

    def build(self) -> None:
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
                summary = empty_like(factory())
                values = self.value_extractors[attr](node)
                if isinstance(values, (list, tuple)) and not self._is_point(attr, values):
                    summary.add_all(values)
                else:
                    summary.add(values)
                own[attr] = summary
            for child in self.tree.children.get(node, ()):
                child_summaries = self._subtree_summaries[child]
                self._child_summaries[node][child] = {
                    attr: summary.copy() for attr, summary in child_summaries.items()
                }
                for attr, summary in child_summaries.items():
                    own[attr] = own[attr].merge(summary)
                self.maintenance_bytes += sum(s.size_bytes() for s in child_summaries.values())
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
        for child in self.tree.children.get(node, ()):
            summary = self._child_summaries[node].get(child, {}).get(attr)
            if summary is not None and probe(summary):
                matching.append(child)
        return matching


def subtree_row(table: SemanticRoutingTable, node: int, attr: str) -> Summary:
    """The array table's summary of the subtree rooted at *node*, copied out
    of its rows into an object summary."""
    if node not in table._covered:
        raise KeyError(node)
    view = table._rows[attr].view(node)
    if isinstance(view, BloomFilterSummary):
        summary = ObjectBloomFilter(view.num_bits, view.num_hashes)
        summary._bits, summary._count = view._bits, view._count
        return summary
    return ObjectRectSummary(view.rect)


def child_row(table: SemanticRoutingTable, node: int, child: int, attr: str) -> Summary:
    """What *node* keeps for its child link to *child*: the child's subtree row."""
    if child not in table.tree.children.get(node, ()):
        raise KeyError((node, child))
    return subtree_row(table, child, attr)
