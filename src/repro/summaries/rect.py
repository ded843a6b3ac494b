"""Bounding-rectangle summaries for spatial (``pos``) attributes.

Region-based queries (Query 3 / Query R) route on Euclidean distance between
node positions.  The routing tables summarize, per subtree, the bounding
rectangle (MBR) of node positions so that a search can prune subtrees whose
rectangle is farther than the query radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.summaries.base import Summary

Point = Tuple[float, float]


def as_point(value: Any) -> Point:
    """*value* as an ``(x, y)`` pair of floats."""
    try:
        x, y = value
    except (TypeError, ValueError) as exc:
        raise TypeError("rectangle summaries store 2-D points") from exc
    return (float(x), float(y))


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
        point = Rect.from_point(as_point(value))
        self.rect = point if self.rect is None else self.rect.expand(point)

    def might_contain(self, value: Any) -> bool:
        return self.rect is not None and self.rect.contains(as_point(value))

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
