"""Figures 19-20: Queries 1 and 2 on 100-node mesh networks (Appendix F).

Expected shape (paper): counting messages instead of bytes, the
MPO-optimized Innet-cmg outperforms the other schemes with Base next best,
versus DHT and Naive -- i.e. the mote-network conclusions generalize.

Scale note: the figures plot 100-cycle runs; at the 10-cycle ``smoke`` preset
the exploration/placement messages have not amortized, genuinely inverting
the total-message ordering, so the paper's (steady-state) shape is asserted
on computation messages there and on totals at default/paper scale (see
test_fig02_query1_traffic for the full rationale).
"""

from benchmarks.conftest import run_once, shape_metric
from repro.experiments.figures_substrate import mesh_query_scenario
from repro.experiments.scenarios import figure_rows


def test_fig19_mesh_query1(benchmark, repro_scale, sweep_ratios,
                           sweep_join_selectivities, show):
    scenario = mesh_query_scenario(
        "query1", "fig19", ratios=sweep_ratios,
        join_selectivities=sweep_join_selectivities,
    )
    rows = run_once(benchmark, figure_rows, scenario, repro_scale)
    show("Figure 19 -- Query 1 on a mesh network (thousands of messages)", rows)
    metric = shape_metric(repro_scale, "total_messages_k", "computation_messages_k")
    for ratio in sweep_ratios:
        for sigma_st in sweep_join_selectivities:
            subset = {r["algorithm"]: r[metric] for r in rows
                      if r["ratio"] == ratio and r["sigma_st"] == sigma_st}
            assert subset["innet-cmg"] < subset["dht"]
            assert subset["innet-cmg"] < subset["naive"] * 1.10


def test_fig20_mesh_query2(benchmark, repro_scale, sweep_ratios,
                           sweep_join_selectivities, show):
    scenario = mesh_query_scenario(
        "query2", "fig20", ratios=sweep_ratios,
        join_selectivities=sweep_join_selectivities,
    )
    rows = run_once(benchmark, figure_rows, scenario, repro_scale)
    show("Figure 20 -- Query 2 on a mesh network (thousands of messages)", rows)
    metric = shape_metric(repro_scale, "total_messages_k", "computation_messages_k")
    for ratio in ("1/10:1", "1:1/10"):
        if ratio not in sweep_ratios:
            continue
        for sigma_st in sweep_join_selectivities:
            subset = {r["algorithm"]: r[metric] for r in rows
                      if r["ratio"] == ratio and r["sigma_st"] == sigma_st}
            assert subset["innet-cmg"] < subset["naive"]
            assert subset["innet-cmg"] < subset["dht"]
