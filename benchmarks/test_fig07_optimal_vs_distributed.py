"""Figure 7: distributed placement vs the global optimum, per topology.

Expected shape (paper): the decentralized computation yields traffic within a
few percent of the optimal centralized placement, independent of topology.
"""

from benchmarks.conftest import run_once
from repro.experiments.scenarios import figure_rows


def test_fig07_optimal_vs_distributed(benchmark, repro_scale, show):
    rows = run_once(benchmark, figure_rows, "fig07", repro_scale)
    show(
        "Figure 7 -- expected per-cycle cost: optimal (O) vs distributed (D)",
        rows,
        columns=["topology", "workload", "optimal_cost", "distributed_cost",
                 "overhead_percent"],
    )
    for row in rows:
        assert row["distributed_cost"] >= row["optimal_cost"] - 1e-9
        if row["workload"].startswith("paper"):
            assert row["overhead_percent"] <= 5.0
