"""1-D interval summaries (semantic-routing-tree style).

TinyDB's semantic routing trees store, per child link, the interval of values
present below that child.  The paper generalizes these (via GiST) but the 1-D
interval remains the workhorse for ordered numeric attributes.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.summaries.base import Summary


class IntervalSummary(Summary):
    """Closed interval ``[lo, hi]`` covering every absorbed value."""

    def __init__(self, lo: Optional[float] = None, hi: Optional[float] = None) -> None:
        if (lo is None) != (hi is None):
            raise ValueError("lo and hi must both be given or both omitted")
        if lo is not None and hi is not None and lo > hi:
            raise ValueError("lo must not exceed hi")
        self.lo = lo
        self.hi = hi

    def add(self, value: Any) -> None:
        value = float(value)
        if self.lo is None or value < self.lo:
            self.lo = value
        if self.hi is None or value > self.hi:
            self.hi = value

    def might_contain(self, value: Any) -> bool:
        if self.lo is None:
            return False
        return self.lo <= float(value) <= self.hi

    def overlaps(self, lo: float, hi: float) -> bool:
        """Return ``True`` if the summary overlaps the query range [lo, hi]."""
        if self.lo is None:
            return False
        return not (hi < self.lo or lo > self.hi)

    def merge(self, other: Summary) -> "IntervalSummary":
        if not isinstance(other, IntervalSummary):
            raise TypeError("can only merge with another IntervalSummary")
        if self.lo is None:
            return other.copy()
        if other.lo is None:
            return self.copy()
        return IntervalSummary(min(self.lo, other.lo), max(self.hi, other.hi))

    def size_bytes(self) -> int:
        # Two 16-bit attribute values, matching the mote implementation.
        return 4

    def copy(self) -> "IntervalSummary":
        return IntervalSummary(self.lo, self.hi)

    def is_empty(self) -> bool:
        return self.lo is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.lo is None:
            return "IntervalSummary(empty)"
        return f"IntervalSummary([{self.lo}, {self.hi}])"
