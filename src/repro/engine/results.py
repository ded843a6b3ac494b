"""Run-level and aggregate result containers.

A :class:`RunResult` wraps the :class:`~repro.joins.base.ExecutionReport` of
one seeded run of one algorithm; an :class:`AggregateResult` averages a
metric across seeded runs with the paper's 95 % confidence intervals
(Student-t for the small run counts the evaluation uses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

from repro.joins.base import ExecutionReport

# Student-t 97.5 % quantiles for small sample sizes (index = degrees of freedom).
_T_975 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
          7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228}


@dataclass
class RunResult:
    """One seeded run of one algorithm."""

    algorithm: str
    seed: int
    report: ExecutionReport

    def metric(self, name: str) -> float:
        metrics = self.report.as_dict()
        try:
            value = metrics[name]
        except KeyError:
            raise KeyError(
                f"unknown metric {name!r}; the execution report exposes "
                f"{sorted(metrics)}"
            ) from None
        return float(value)


def measurement_report(
    query_name: str,
    algorithm: str,
    cycles: int = 0,
    total_traffic: float = 0.0,
    base_traffic: float = 0.0,
    max_node_load: float = 0.0,
    **extra: float,
) -> ExecutionReport:
    """An ExecutionReport for measurement-style run kinds.

    Custom run kinds (path quality, initiation traffic, mobility) do not run
    the join execution loop; they fill the traffic fields that apply and put
    kind-specific metrics into ``extra``, so their results flow through the
    same aggregation, metric lookup and result store as join runs.
    """
    return ExecutionReport(
        query_name=query_name,
        algorithm=algorithm,
        cycles=cycles,
        total_traffic=total_traffic,
        initiation_traffic=0.0,
        computation_traffic=total_traffic,
        base_traffic=base_traffic,
        max_node_load=max_node_load,
        results_produced=0,
        results_delivered=0,
        average_result_delay_cycles=0.0,
        average_result_path_hops=0.0,
        messages_dropped=0,
        extra={key: float(value) for key, value in extra.items()},
    )


@dataclass
class AggregateResult:
    """Mean and 95 % confidence interval across seeded runs."""

    algorithm: str
    runs: List[RunResult] = field(default_factory=list)

    def mean(self, metric: str) -> float:
        values = [run.metric(metric) for run in self.runs]
        return sum(values) / len(values) if values else 0.0

    def confidence_95(self, metric: str) -> float:
        values = [run.metric(metric) for run in self.runs]
        n = len(values)
        if n < 2:
            return 0.0
        mean = sum(values) / n
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        t_value = _T_975.get(n - 1, 1.96)
        return t_value * math.sqrt(variance / n)
