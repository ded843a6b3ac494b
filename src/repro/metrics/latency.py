"""Streaming latency accumulation.

:class:`LatencySink` keeps O(1) state for a stream of latency observations:
exact per-kind count/sum accumulators (integer latencies sum exactly) plus
P-square streaming percentile estimators (Jain & Chlamtac 1985) for
p50/p95/p99 without retaining observations.  The shared-substrate engine
records the control-plane delay of every group re-decision in one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


class StreamingQuantile:
    """P-square single-quantile estimator: O(1) memory, no stored samples.

    Exact until five observations arrive (it sorts the initial buffer), then
    maintains five markers whose middle height tracks the *q*-quantile.
    """

    __slots__ = ("q", "_initial", "_heights", "_positions",
                 "_desired", "_increments")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.q = q
        self._initial: List[float] = []
        self._heights: Optional[List[float]] = None
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._increments: List[float] = []

    def add(self, value: float) -> None:
        heights = self._heights
        if heights is None:
            self._initial.append(float(value))
            if len(self._initial) == 5:
                self._initial.sort()
                q = self.q
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0]
                self._increments = [0.0, q / 2, q, (1 + q) / 2, 1.0]
            return
        positions = self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            positions[index] += 1
        desired = self._desired
        for index in range(5):
            desired[index] += self._increments[index]
        for index in (1, 2, 3):
            delta = desired[index] - positions[index]
            if ((delta >= 1 and positions[index + 1] - positions[index] > 1)
                    or (delta <= -1 and positions[index - 1] - positions[index] < -1)):
                step = 1.0 if delta >= 0 else -1.0
                candidate = self._parabolic(index, step)
                if not heights[index - 1] < candidate < heights[index + 1]:
                    candidate = self._linear(index, step)
                heights[index] = candidate
                positions[index] += step

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        """Current quantile estimate (exact while under five samples)."""
        if self._heights is not None:
            return self._heights[2]
        if not self._initial:
            return 0.0
        ordered = sorted(self._initial)
        index = round(self.q * (len(ordered) - 1))
        return ordered[int(index)]


#: Percentiles the sink tracks, with their summary-key suffixes.
PERCENTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p95", 0.95), ("p99", 0.99),
)


class LatencySink:
    """Streaming per-kind latency statistics."""

    def __init__(self, key_prefix: str = "latency") -> None:
        self.key_prefix = key_prefix
        self.reset()

    def reset(self) -> None:
        #: kind -> [count, sum] exact accumulators
        self._by_kind: Dict[object, List[float]] = {}
        self._estimators = {
            label: StreamingQuantile(q) for label, q in PERCENTILES
        }
        self.count = 0
        self.total = 0.0
        self.max_latency = 0.0

    # -- events -------------------------------------------------------------
    def on_delivery(self, kind, latency_cycles: int, hops: int = 0) -> None:
        latency = float(latency_cycles)
        entry = self._by_kind.get(kind)
        if entry is None:
            entry = self._by_kind[kind] = [0.0, 0.0]
        entry[0] += 1
        entry[1] += latency
        self.count += 1
        self.total += latency
        if latency > self.max_latency:
            self.max_latency = latency
        for estimator in self._estimators.values():
            estimator.add(latency)

    # -- results ------------------------------------------------------------
    def mean(self, kinds: Optional[Iterable] = None) -> float:
        """Exact mean latency, optionally restricted to *kinds*."""
        if kinds is None:
            return self.total / self.count if self.count else 0.0
        count = total = 0.0
        for kind in set(kinds):
            entry = self._by_kind.get(kind)
            if entry is not None:
                count += entry[0]
                total += entry[1]
        return total / count if count else 0.0

    def quantile(self, label: str) -> float:
        return self._estimators[label].value()

    def summary(self) -> Dict[str, float]:
        prefix = self.key_prefix
        out = {
            f"{prefix}_count": float(self.count),
            f"{prefix}_mean": self.mean(),
            f"{prefix}_max": self.max_latency,
        }
        for label, _ in PERCENTILES:
            out[f"{prefix}_{label}"] = self._estimators[label].value()
        return out
