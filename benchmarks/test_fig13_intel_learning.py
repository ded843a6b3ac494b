"""Figure 13: Query 3 on the Intel-lab(-like) dataset with learning.

Expected shape (paper): starting from 100 % selectivity estimates puts every
join node at the base station (identical to Naive/Base); as estimates are
learned the join nodes migrate in-network and total traffic lands within
~10 % of the full-knowledge Innet run, while GHT/GPSR and Yang+07 are far
more expensive (the paper plots this on a log scale).
"""

from benchmarks.conftest import run_once
from repro.experiments.scenarios import figure_rows


def test_fig13_intel_learning(benchmark, repro_scale, show):
    rows = run_once(benchmark, figure_rows, "fig13", repro_scale)
    show(
        "Figure 13 -- Intel dataset (Query 3): traffic at base, max node, total (KB)",
        rows,
        columns=["setting", "total_traffic_kb", "base_traffic_kb",
                 "max_node_traffic_kb", "results", "reoptimizations"],
    )
    by_setting = {row["setting"]: row for row in rows}
    ght = by_setting["ght_gpsr"]["total_traffic_kb"]
    full = by_setting["innet_full_knowledge"]["total_traffic_kb"]
    learn = by_setting["innet_learn"]["total_traffic_kb"]
    naive = by_setting["naive_base"]["total_traffic_kb"]
    # GHT/GPSR is by far the most expensive; the in-network runs are cheapest.
    assert ght > naive
    assert full <= naive * 1.05
    # Learning lands between the at-base start and the full-knowledge run.
    assert learn <= naive * 1.15
    assert learn >= full * 0.85
