"""Figure 8: MPO cost-model validation (Queries 1 and 2).

Expected shape (paper): with group optimization enabled, feeding the
optimizer the correct selectivities gives the best plans; ballpark estimates
remain reasonable while very inaccurate estimates can be expensive.
"""

from benchmarks.conftest import full_sweep_enabled, run_once
from repro.experiments.figures_joins import fig08_scenario
from repro.experiments.scenarios import figure_rows


def test_fig08_mpo_costmodel(benchmark, repro_scale, show):
    ratios = None if full_sweep_enabled() else ["1/10:1", "1/2:1/2", "1:1/10"]
    rows = run_once(
        benchmark, figure_rows,
        fig08_scenario(true_ratios=ratios, estimated_ratios=ratios), repro_scale,
    )
    show(
        "Figure 8 -- Innet-cmpg traffic (KB) under different selectivity estimates",
        rows,
        columns=["query", "true_ratio", "estimated_ratio", "is_true_estimate",
                 "total_traffic_kb"],
    )
    # The correct estimate is at worst a whisker away from the best column.
    for query in {row["query"] for row in rows}:
        for true_ratio in {row["true_ratio"] for row in rows}:
            group = [r for r in rows
                     if r["query"] == query and r["true_ratio"] == true_ratio]
            if not group:
                continue
            true_row = next(r for r in group if r["is_true_estimate"])
            best = min(r["total_traffic_kb"] for r in group)
            assert true_row["total_traffic_kb"] <= best * 1.25
