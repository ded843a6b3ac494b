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

    def min_distance(self, point: Point) -> float:
        """Minimum Euclidean distance between *point* and the rectangle."""
        x, y = point
        dx = max(self.xmin - x, 0.0, x - self.xmax)
        dy = max(self.ymin - y, 0.0, y - self.ymax)
        return math.hypot(dx, dy)


class RectSummary(Summary):
    """The bounding rectangle (MBR) of a set of 2-D points.

    What a semantic routing table keeps per subtree for a spatial attribute:
    one rectangle (``None`` while empty), which is all a radius probe reads,
    so the probe has false positives but no false negatives.  The table's
    rows set ``rect``.
    """

    def __init__(self) -> None:
        self.rect: Optional[Rect] = None

    def size_bytes(self) -> int:
        # One rectangle: four 16-bit coordinates.
        return 8

    def intersects_radius(self, center: Point, radius: float) -> bool:
        return self.rect is not None and self.rect.min_distance(center) <= radius
