"""The object build of the summaries: the semantic index's test oracle.

``SemanticRoutingTable`` builds its summaries as arrays, and ``src/`` keeps of
each summary type only what a probe reads (``might_contain`` or
``intersects_radius``, and ``size_bytes``).  These subclasses add the object
build that ``tests/routing/semantic_oracle.py`` aggregates bottom-up, one
summary per node and a merge per tree edge: ``add``, ``add_all``, ``merge``
and ``copy``.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.summaries import BloomFilterSummary, Rect, RectSummary, Summary
from repro.summaries.bloom import _mask_for
from repro.summaries.rect import as_point


class ObjectBloomFilter(BloomFilterSummary):
    """A Bloom filter that absorbs values one ``add`` at a time; ``_count``
    counts the calls (duplicates included)."""

    def __init__(self, num_bits: int = 64, num_hashes: Optional[int] = None,
                 expected_items: int = 16, values: Iterable[Any] = ()) -> None:
        super().__init__(num_bits, num_hashes, expected_items)
        self.add_all(values)

    def add(self, value: Any) -> None:
        self._bits |= _mask_for(value, self.num_bits, self.num_hashes)
        self._count += 1

    def add_all(self, values: Iterable[Any]) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: Summary) -> "ObjectBloomFilter":
        if not isinstance(other, BloomFilterSummary):
            raise TypeError("can only merge with another BloomFilterSummary")
        if other.num_bits != self.num_bits or other.num_hashes != self.num_hashes:
            raise ValueError("cannot merge Bloom filters with different geometry")
        merged = self.copy()
        merged._bits |= other._bits
        merged._count += other._count
        return merged

    def copy(self) -> "ObjectBloomFilter":
        clone = ObjectBloomFilter(self.num_bits, self.num_hashes)
        clone._bits, clone._count = self._bits, self._count
        return clone


class ObjectRectSummary(RectSummary):
    """A bounding rectangle grown one point at a time."""

    def __init__(self, rect: Optional[Rect] = None) -> None:
        super().__init__()
        self.rect = rect

    def add(self, value: Any) -> None:
        x, y = as_point(value)
        self.rect = self.merge(ObjectRectSummary(Rect(x, y, x, y))).rect

    def add_all(self, values: Iterable[Any]) -> None:
        for value in values:
            self.add(value)

    def might_contain(self, value: Any) -> bool:
        x, y = as_point(value)
        rect = self.rect
        return rect is not None and rect.xmin <= x <= rect.xmax and rect.ymin <= y <= rect.ymax

    def merge(self, other: Summary) -> "ObjectRectSummary":
        if not isinstance(other, RectSummary):
            raise TypeError("can only merge with another RectSummary")
        a, b = self.rect, other.rect
        if a is None or b is None:
            return ObjectRectSummary(a or b)
        return ObjectRectSummary(Rect(min(a.xmin, b.xmin), min(a.ymin, b.ymin),
                                      max(a.xmax, b.xmax), max(a.ymax, b.ymax)))

    def copy(self) -> "ObjectRectSummary":
        return ObjectRectSummary(self.rect)


def empty_like(prototype: Summary) -> Summary:
    """An empty object summary of *prototype*'s type and geometry."""
    if isinstance(prototype, BloomFilterSummary):
        return ObjectBloomFilter(prototype.num_bits, prototype.num_hashes)
    if isinstance(prototype, RectSummary):
        return ObjectRectSummary()
    raise TypeError(f"no object build for {type(prototype).__name__}")
