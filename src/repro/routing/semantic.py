"""Semantic routing tables.

For every indexed static attribute and every tree, each node keeps one summary
per child link describing the attribute values present in the subtree below
that child (a generalization of TinyDB's semantic routing trees via GiST --
Appendix C).  A content-routing search uses these summaries to decide which
subtrees may hold a matching value and prunes the rest.

Summaries are built bottom-up: leaves report their own values, and every
interior node merges its children's reports before forwarding its own to its
parent.  A table records the bytes of that aggregation (one report per tree
edge) as ``maintenance_bytes``.

A table holds one row per node per attribute -- the summary of the subtree
rooted at that node, which is also what the node's parent keeps for that
child link -- and reduces the rows one tree depth level at a time, leaves
first, with numpy:

* Bloom filters (:class:`BloomFilterSummary`) are packed ``uint64`` words
  OR-ed together, plus an item count;
* positions (:class:`RectSummary`) are one bounding rectangle (MBR) per
  subtree.

A probe gets one summary per table and attribute, re-pointed at each row it
reads.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.routing.tree import RoutingTree
from repro.summaries.base import Summary
from repro.summaries.bloom import (
    _FNV_OFFSET, _FNV_PRIME, _MASK64, BloomFilterSummary, _mask_for,
)
from repro.summaries.rect import Rect, RectSummary, as_point

SummaryFactory = Callable[[], Summary]
#: Extracts the indexed value(s) of one attribute from a node; may return a
#: single value or a list of values.
ValueExtractor = Callable[[int], Any]

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _is_point(attr: str, values: Any) -> bool:
    """Positions are (x, y) tuples, which must be added as single items."""
    return (
        attr == "pos"
        and len(values) == 2
        and all(isinstance(v, (int, float)) for v in values)
    )


class AttributeValues:
    """One attribute's values at a set of nodes, flattened to items.

    A node's extracted list or tuple contributes each element (a position
    is one item); anything else is one item.  Extracted once per index build
    and shared by every tree's table, together with the per-node rows each
    summary geometry derives from the items.
    """

    def __init__(self, attr: str, extractor: ValueExtractor, nodes: Iterable[int]) -> None:
        items: List[Any] = []
        owners: List[int] = []
        for node in nodes:
            values = extractor(node)
            if isinstance(values, (list, tuple)) and not _is_point(attr, values):
                items.extend(values)
                owners.extend([node] * len(values))
            else:
                items.append(values)
                owners.append(node)
        self.items = items
        self.owners = np.asarray(owners, dtype=np.int64)
        self._own_rows: Dict[tuple, tuple] = {}

    def own_rows(self, key: tuple, compute: Callable[[], tuple]) -> tuple:
        """Per-node rows of one summary geometry, computed once per key."""
        rows = self._own_rows.get(key)
        if rows is None:
            rows = self._own_rows[key] = compute()
        return rows


def extract_values(
    attribute_factories: Dict[str, SummaryFactory],
    value_extractors: Dict[str, ValueExtractor],
    nodes: Iterable[int],
) -> Dict[str, AttributeValues]:
    """Every indexed attribute's values at *nodes*, one extractor call each."""
    missing = set(attribute_factories) - set(value_extractors)
    if missing:
        raise ValueError(f"no value extractor for attributes: {sorted(missing)}")
    nodes = list(nodes)
    return {
        attr: AttributeValues(attr, value_extractors[attr], nodes)
        for attr in attribute_factories
    }


# ---------------------------------------------------------------------------
# Bloom value masks
# ---------------------------------------------------------------------------

def _fnv1a_int64(words: np.ndarray, seed: int) -> np.ndarray:
    """``_fnv1a`` of every value's 8-byte little-endian two's complement."""
    value = np.full(words.shape, (_FNV_OFFSET ^ (seed * 0x9E3779B97F4A7C15)) & _MASK64,
                    dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for shift in range(0, 64, 8):
        value ^= (words >> np.uint64(shift)) & np.uint64(0xFF)
        value *= prime   # wraps modulo 2**64, like the scalar ``& _MASK64``
    return value


def bloom_masks(items: List[Any], num_bits: int, num_hashes: int) -> np.ndarray:
    """Packed ``uint64`` rows equal to ``_mask_for(item, num_bits, num_hashes)``.

    Values of exact type ``int`` within int64 go through a numpy FNV-1a;
    every other value (bool, float, str, None, numpy scalars, containers)
    through ``_mask_for``, once per distinct value.
    """
    words = (num_bits + 63) // 64
    masks = np.zeros((len(items), words), dtype=np.uint64)
    fast: List[int] = []
    slow: List[int] = []
    for i, value in enumerate(items):
        exact = type(value) is int and _INT64_MIN <= value <= _INT64_MAX
        (fast if exact else slow).append(i)
    if fast:
        rows = np.asarray(fast, dtype=np.int64)
        values = np.asarray([items[i] for i in fast], dtype=np.int64).view(np.uint64)
        m = np.uint64(num_bits)
        # (h1 + i*h2) % m == (h1 % m + i*(h2 % m)) % m, and the reduced
        # terms stay far below 2**64.
        step = (_fnv1a_int64(values, 2) | np.uint64(1)) % m
        position = _fnv1a_int64(values, 1) % m
        for i in range(num_hashes):
            if i:
                position = (position + step) % m
            masks[rows, (position >> np.uint64(6)).astype(np.int64)] |= (
                np.uint64(1) << (position & np.uint64(63))
            )
    memo: Dict[Any, np.ndarray] = {}
    for i in slow:
        value = items[i]
        try:
            key = (value.__class__, value)
            row = memo.get(key)
        except TypeError:   # unhashable: no memo
            key, row = None, None
        if row is None:
            mask = _mask_for(value, num_bits, num_hashes)
            row = np.frombuffer(mask.to_bytes(words * 8, "little"), dtype="<u8")
            if key is not None:
                memo[key] = row
        masks[i] = row
    return masks


# ---------------------------------------------------------------------------
# per-geometry row sets
# ---------------------------------------------------------------------------

class _BloomRows:
    """Bloom filters as packed words plus an item count per node.

    ``view(node)`` re-points the table's prototype summary at a row, so a
    probe over many rows builds no objects; it is valid until the next
    ``view`` call.  It reads a per-row memo of the Python-int bitset, filled
    on first use.
    """

    def __init__(self, prototype: BloomFilterSummary, values: AttributeValues,
                 size: int) -> None:
        self.num_bits = prototype.num_bits
        self.num_hashes = prototype.num_hashes
        self.report_bytes = prototype.size_bytes()
        bits, counts = values.own_rows((type(self), self.num_bits, self.num_hashes, size),
                                       lambda: self._own(values, size))
        self.bits = bits.copy()
        self.counts = counts.copy()
        self._view = prototype
        self._memo: List[Optional[int]] = [None] * size
        self._bytes: Optional[bytes] = None
        self._width = 8 * self.bits.shape[1]   # bytes per row

    def _own(self, values: AttributeValues, size: int) -> tuple:
        bits = np.zeros((size, (self.num_bits + 63) // 64), dtype=np.uint64)
        masks = bloom_masks(values.items, self.num_bits, self.num_hashes)
        np.bitwise_or.at(bits, values.owners, masks)
        return bits, np.bincount(values.owners, minlength=size).astype(np.int64)

    def absorb(self, parents: np.ndarray, children: np.ndarray) -> None:
        np.bitwise_or.at(self.bits, parents, self.bits[children])
        np.add.at(self.counts, parents, self.counts[children])

    def _bitset(self, node: int) -> int:
        """A row's bitset as a Python int, memoized on first use."""
        if self._bytes is None:
            self._bytes = self.bits.astype("<u8", copy=False).tobytes()
            self._counts = self.counts.tolist()
        start = node * self._width
        bits = self._memo[node] = int.from_bytes(
            self._bytes[start:start + self._width], "little")
        return bits

    def view(self, node: int) -> BloomFilterSummary:
        view = self._view
        bits = self._memo[node]
        view._bits = self._bitset(node) if bits is None else bits
        view._count = self._counts[node]   # filled with the first bitset
        return view


class _RectRows:
    """Positions: one bounding rectangle (MBR) per subtree, as min / max
    corner columns (``min > max`` is empty).

    ``view`` as for :class:`_BloomRows`.
    """

    report_bytes = RectSummary().size_bytes()

    def __init__(self, prototype: Summary, values: AttributeValues, size: int) -> None:
        low, high = values.own_rows((type(self), size), lambda: self._own(values, size))
        self.low = low.copy()     # [node, axis]
        self.high = high.copy()
        self._corners: Optional[tuple] = None
        self._view = RectSummary()

    def _own(self, values: AttributeValues, size: int) -> tuple:
        coords = np.asarray([as_point(v) for v in values.items],
                            dtype=np.float64).reshape(-1, 2)
        low = np.full((size, 2), np.inf)
        high = np.full((size, 2), -np.inf)
        np.minimum.at(low, values.owners, coords)
        np.maximum.at(high, values.owners, coords)
        return low, high

    def absorb(self, parents: np.ndarray, children: np.ndarray) -> None:
        np.minimum.at(self.low, parents, self.low[children])
        np.maximum.at(self.high, parents, self.high[children])

    def view(self, node: int) -> RectSummary:
        if self._corners is None:
            self._corners = (self.low.tolist(), self.high.tolist())
        low, high = self._corners[0][node], self._corners[1][node]
        self._view.rect = None if low[0] > high[0] else Rect(*low, *high)
        return self._view


_ROWS_FOR = (
    (BloomFilterSummary, _BloomRows),
    (RectSummary, _RectRows),
)


def _rows_type(prototype: Summary) -> type:
    for summary_type, rows_type in _ROWS_FOR:
        if isinstance(prototype, summary_type):
            return rows_type
    supported = ", ".join(t.__name__ for t, _ in _ROWS_FOR)
    raise TypeError(
        f"semantic routing tables index {supported} summaries, "
        f"not {type(prototype).__name__}"
    )


class SemanticRoutingTable:
    """Per-tree routing tables mapping (node, child, attribute) -> summary."""

    def __init__(
        self,
        tree: RoutingTree,
        attribute_factories: Dict[str, SummaryFactory],
        value_extractors: Dict[str, ValueExtractor],
        values: Optional[Dict[str, AttributeValues]] = None,
    ) -> None:
        missing = set(attribute_factories) - set(value_extractors)
        if missing:
            raise ValueError(f"no value extractor for attributes: {sorted(missing)}")
        self.tree = tree
        self.attribute_factories = dict(attribute_factories)
        self.value_extractors = dict(value_extractors)
        self._prototypes = {
            attr: factory() for attr, factory in self.attribute_factories.items()
        }
        self._row_types = {
            attr: _rows_type(prototype) for attr, prototype in self._prototypes.items()
        }
        self.build(values)

    # ------------------------------------------------------------------
    def build(self, values: Optional[Dict[str, AttributeValues]] = None) -> None:
        """Aggregate summaries bottom-up over the tree.

        *values* are the attributes' extracted values (``extract_values``),
        which must cover the tree's nodes; by default they are extracted
        here.  ``maintenance_bytes`` is what every child's report to its
        parent would cost: one report per tree edge.
        """
        tree = self.tree
        if values is None:
            values = extract_values(
                self.attribute_factories, self.value_extractors, tree.parent)
        nodes = np.fromiter(tree.parent, dtype=np.int64, count=len(tree.parent))
        parents = np.fromiter(
            (-1 if p is None else p for p in tree.parent.values()),
            dtype=np.int64, count=len(nodes))
        depths = np.fromiter(
            (tree.depth[n] for n in tree.parent), dtype=np.int64, count=len(nodes))
        size = 1 + max([int(nodes.max(initial=-1))] + [
            int(v.owners.max(initial=-1)) for v in values.values()])
        self._covered = set(tree.parent)   # the nodes the rows were reduced over
        self._rows = {
            attr: self._row_types[attr](self._prototypes[attr], values[attr], size)
            for attr in self.attribute_factories
        }
        # Bottom-up, one level at a time: every child's parent is one level
        # up, so a level's rows are final before they are read.
        order = np.argsort(-depths, kind="stable")
        level_depths = depths[order]
        bounds = np.flatnonzero(np.diff(level_depths)) + 1
        for level in np.split(order, bounds):
            level = level[parents[level] >= 0]
            if level.size:
                for rows in self._rows.values():
                    rows.absorb(parents[level], nodes[level])
        report_bytes = sum(rows.report_bytes for rows in self._rows.values())
        self.maintenance_bytes = report_bytes * int(np.count_nonzero(parents >= 0))

    # ------------------------------------------------------------------
    def children_that_might_match(
        self,
        node: int,
        attr: str,
        probe: Callable[[Summary], bool],
    ) -> List[int]:
        """Children of *node* whose subtree summary satisfies *probe*.

        The summary a probe receives is valid for that call only.
        """
        rows = self._rows.get(attr)
        if rows is None:
            return []
        covered = self._covered
        view = rows.view
        matching = []
        for child in self.tree.children.get(node, ()):
            if child in covered and probe(view(child)):
                matching.append(child)
        return matching
