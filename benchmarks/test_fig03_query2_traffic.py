"""Figure 3: Query 2 (perimeter join, w=1) -- total traffic and base load.

Expected shape (paper): Innet provides the best performance in all cases of
Query 2; the MPO variants match or improve on it; GHT is poor; Naive and Base
are close to each other because few perimeter producers can be pre-filtered.

Scale note: as with Figure 2, the 10-cycle ``smoke`` preset has not amortized
Innet's initiation traffic, so the paper's ordering (a steady-state claim) is
asserted on computation traffic there and on total traffic at default/paper
scale (see test_fig02_query1_traffic for the full rationale).
"""

from benchmarks.conftest import run_once, shape_metric
from repro.experiments.figures_joins import query_traffic_scenario
from repro.experiments.scenarios import figure_rows


def test_fig03_query2_traffic(benchmark, repro_scale, sweep_ratios,
                              sweep_join_selectivities, show):
    scenario = query_traffic_scenario(
        "query2", "fig03", ratios=sweep_ratios,
        join_selectivities=sweep_join_selectivities,
    )
    rows = run_once(benchmark, figure_rows, scenario, repro_scale)
    show(
        "Figure 3 -- Query 2, total traffic (KB) and base-station load (KB)",
        rows,
        columns=["ratio", "sigma_st", "algorithm", "total_traffic_kb",
                 "base_traffic_kb", "total_ci95_kb"],
    )
    assert rows
    metric = shape_metric(repro_scale, "total_traffic_kb", "computation_traffic_kb")
    # At the asymmetric ratios the in-network strategies clearly beat Naive.
    for ratio in ("1/10:1", "1:1/10"):
        if ratio not in sweep_ratios:
            continue
        for sigma_st in sweep_join_selectivities:
            subset = {
                r["algorithm"]: r[metric] for r in rows
                if r["ratio"] == ratio and r["sigma_st"] == sigma_st
            }
            assert subset["innet-cmg"] < subset["naive"]
