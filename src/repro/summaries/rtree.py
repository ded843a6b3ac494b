"""R-tree style rectangle summaries for spatial (``pos``) attributes.

Region-based queries (Query 3 / Query R) route on Euclidean distance between
node positions.  The routing tables summarize, per subtree, the bounding
rectangles of node positions so that a search can prune subtrees whose
bounding box is farther than the query radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.summaries.base import Summary

Point = Tuple[float, float]


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError("rectangle min bounds must not exceed max bounds")

    @staticmethod
    def from_point(point: Point) -> "Rect":
        x, y = point
        return Rect(x, y, x, y)

    def contains(self, point: Point) -> bool:
        x, y = point
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def expand(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    def intersects(self, other: "Rect") -> bool:
        return not (
            other.xmax < self.xmin
            or other.xmin > self.xmax
            or other.ymax < self.ymin
            or other.ymin > self.ymax
        )

    def area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    def enlargement(self, other: "Rect") -> float:
        return self.expand(other).area() - self.area()

    def min_distance(self, point: Point) -> float:
        """Minimum Euclidean distance between *point* and the rectangle."""
        x, y = point
        dx = max(self.xmin - x, 0.0, x - self.xmax)
        dy = max(self.ymin - y, 0.0, y - self.ymax)
        return math.hypot(dx, dy)


class RectSummary(Summary):
    """The bounding rectangle (MBR) of a set of 2-D points.

    What a semantic routing table keeps per subtree for a spatial attribute:
    one rectangle, which is all a radius probe reads.  Containment is
    rectangle containment, so it has false positives but no false negatives.
    """

    def __init__(self, rect: Optional[Rect] = None) -> None:
        self.rect = rect

    def add(self, value: Any) -> None:
        point = Rect.from_point(RTreeSummary._as_point(value))
        self.rect = point if self.rect is None else self.rect.expand(point)

    def might_contain(self, value: Any) -> bool:
        return self.rect is not None and self.rect.contains(RTreeSummary._as_point(value))

    def merge(self, other: Summary) -> "RectSummary":
        if not isinstance(other, RectSummary):
            raise TypeError("can only merge with another RectSummary")
        if self.rect is None or other.rect is None:
            return RectSummary(self.rect or other.rect)
        return RectSummary(self.rect.expand(other.rect))

    def size_bytes(self) -> int:
        # One rectangle: four 16-bit coordinates.
        return 8

    def copy(self) -> "RectSummary":
        return RectSummary(self.rect)

    def intersects_radius(self, center: Point, radius: float) -> bool:
        return self.rect is not None and self.rect.min_distance(center) <= radius

    def bounding_rect(self) -> Optional[Rect]:
        return self.rect

    def is_empty(self) -> bool:
        return self.rect is None


class _RTreeNode:
    __slots__ = ("rect", "children", "points", "is_leaf")

    def __init__(self, is_leaf: bool = True) -> None:
        self.rect: Optional[Rect] = None
        self.children: List["_RTreeNode"] = []
        self.points: List[Point] = []
        self.is_leaf = is_leaf

    def recompute_rect(self) -> None:
        rects: List[Rect] = []
        if self.is_leaf:
            rects = [Rect.from_point(p) for p in self.points]
        else:
            rects = [c.rect for c in self.children if c.rect is not None]
        if not rects:
            self.rect = None
            return
        rect = rects[0]
        for other in rects[1:]:
            rect = rect.expand(other)
        self.rect = rect


class RTreeSummary(Summary):
    """A small in-memory R-tree over 2-D points.

    The tree supports the :class:`Summary` protocol (membership with false
    positives controlled by bounding boxes) plus range and radius queries used
    by region-based join routing.
    """

    def __init__(self, max_entries: int = 8, points: Optional[Sequence[Point]] = None) -> None:
        if max_entries < 2:
            raise ValueError("max_entries must be at least 2")
        self.max_entries = max_entries
        self._root = _RTreeNode(is_leaf=True)
        self._count = 0
        if points is not None:
            self.add_all(points)

    # -- Summary protocol -------------------------------------------------
    def add(self, value: Any) -> None:
        point = self._as_point(value)
        self._insert(self._root, point)
        self._count += 1

    def might_contain(self, value: Any) -> bool:
        point = self._as_point(value)
        return self._search_point(self._root, point)

    def merge(self, other: Summary) -> "RTreeSummary":
        if not isinstance(other, RTreeSummary):
            raise TypeError("can only merge with another RTreeSummary")
        merged = RTreeSummary(max_entries=self.max_entries)
        merged.add_all(self.points())
        merged.add_all(other.points())
        return merged

    def size_bytes(self) -> int:
        # Each bounding rectangle costs four 16-bit coordinates.
        return 8 * max(1, self._node_count(self._root))

    def copy(self) -> "RTreeSummary":
        clone = RTreeSummary(max_entries=self.max_entries)
        clone.add_all(self.points())
        return clone

    # -- spatial queries ---------------------------------------------------
    def query_rect(self, rect: Rect) -> List[Point]:
        """Return every stored point inside *rect*."""
        found: List[Point] = []
        self._query_rect(self._root, rect, found)
        return found

    def query_radius(self, center: Point, radius: float) -> List[Point]:
        """Return every stored point within *radius* of *center*."""
        found: List[Point] = []
        self._query_radius(self._root, center, radius, found)
        return found

    def intersects_radius(self, center: Point, radius: float) -> bool:
        """Cheap pruning check: might any summarized point lie within radius?"""
        if self._root.rect is None:
            return False
        return self._root.rect.min_distance(center) <= radius

    def bounding_rect(self) -> Optional[Rect]:
        return self._root.rect

    def points(self) -> List[Point]:
        out: List[Point] = []
        self._collect(self._root, out)
        return out

    def __len__(self) -> int:
        return self._count

    def is_empty(self) -> bool:
        return self._count == 0

    # -- internals ---------------------------------------------------------
    @staticmethod
    def _as_point(value: Any) -> Point:
        try:
            x, y = value
        except (TypeError, ValueError) as exc:
            raise TypeError("RTreeSummary stores 2-D points") from exc
        return (float(x), float(y))

    def _insert(self, node: _RTreeNode, point: Point) -> None:
        if node.is_leaf:
            node.points.append(point)
            node.recompute_rect()
            if len(node.points) > self.max_entries:
                self._split_leaf(node)
            return
        best = min(
            node.children,
            key=lambda child: (
                child.rect.enlargement(Rect.from_point(point)) if child.rect else 0.0,
                child.rect.area() if child.rect else 0.0,
            ),
        )
        self._insert(best, point)
        node.recompute_rect()
        if len(node.children) > self.max_entries:
            self._split_internal(node)

    def _split_leaf(self, node: _RTreeNode) -> None:
        points = sorted(node.points)
        mid = len(points) // 2
        left = _RTreeNode(is_leaf=True)
        right = _RTreeNode(is_leaf=True)
        left.points = points[:mid]
        right.points = points[mid:]
        left.recompute_rect()
        right.recompute_rect()
        node.is_leaf = False
        node.points = []
        node.children = [left, right]
        node.recompute_rect()

    def _split_internal(self, node: _RTreeNode) -> None:
        children = sorted(
            node.children,
            key=lambda c: (c.rect.xmin if c.rect else 0.0, c.rect.ymin if c.rect else 0.0),
        )
        mid = len(children) // 2
        left = _RTreeNode(is_leaf=False)
        right = _RTreeNode(is_leaf=False)
        left.children = children[:mid]
        right.children = children[mid:]
        left.recompute_rect()
        right.recompute_rect()
        node.children = [left, right]
        node.recompute_rect()

    def _search_point(self, node: _RTreeNode, point: Point) -> bool:
        if node.rect is None or not node.rect.contains(point):
            return False
        if node.is_leaf:
            return point in node.points
        return any(self._search_point(child, point) for child in node.children)

    def _query_rect(self, node: _RTreeNode, rect: Rect, out: List[Point]) -> None:
        if node.rect is None or not node.rect.intersects(rect):
            return
        if node.is_leaf:
            out.extend(p for p in node.points if rect.contains(p))
            return
        for child in node.children:
            self._query_rect(child, rect, out)

    def _query_radius(
        self, node: _RTreeNode, center: Point, radius: float, out: List[Point]
    ) -> None:
        if node.rect is None or node.rect.min_distance(center) > radius:
            return
        if node.is_leaf:
            cx, cy = center
            for x, y in node.points:
                if math.hypot(x - cx, y - cy) <= radius:
                    out.append((x, y))
            return
        for child in node.children:
            self._query_radius(child, center, radius, out)

    def _collect(self, node: _RTreeNode, out: List[Point]) -> None:
        if node.is_leaf:
            out.extend(node.points)
            return
        for child in node.children:
            self._collect(child, out)

    def _node_count(self, node: _RTreeNode) -> int:
        if node.is_leaf:
            return 1
        return 1 + sum(self._node_count(child) for child in node.children)
