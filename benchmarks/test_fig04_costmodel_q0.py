"""Figure 4: pairwise cost-model validation on Query 0 (1:1 join).

Expected shape (paper): when Innet is given the *true* sigma_s:sigma_t ratio
it produces the lowest traffic within each group; very wrong estimates cost
more.
"""

from benchmarks.conftest import full_sweep_enabled, run_once
from repro.experiments.figures_joins import fig04_scenario
from repro.experiments.scenarios import figure_rows


def test_fig04_costmodel_query0(benchmark, repro_scale, show):
    ratios = None if full_sweep_enabled() else ["1/10:1", "1/2:1/2", "1:1/10"]
    rows = run_once(
        benchmark, figure_rows,
        fig04_scenario(true_ratios=ratios, estimated_ratios=ratios), repro_scale,
    )
    show(
        "Figure 4 -- Query 0 traffic (KB) when optimizing for each estimate",
        rows,
        columns=["true_ratio", "estimated_ratio", "is_true_estimate",
                 "total_traffic_kb", "best_estimate"],
    )
    # The true estimate is never beaten by more than a whisker.
    for true_ratio in {row["true_ratio"] for row in rows}:
        group = [r for r in rows if r["true_ratio"] == true_ratio]
        true_row = next(r for r in group if r["is_true_estimate"])
        best = min(r["total_traffic_kb"] for r in group)
        assert true_row["total_traffic_kb"] <= best * 1.10
