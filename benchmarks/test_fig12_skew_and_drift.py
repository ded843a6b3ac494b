"""Figure 12: spatial skew (a) and temporal drift (b).

Expected shape (paper): (a) with half the nodes on Sel1 and half on Sel2,
the learning runs approach the full-knowledge oracle (up to ~70 % traffic
reduction vs a single wrong regime); (b) when the workload switches regimes
mid-run, learning recovers roughly half the oracle's advantage.
"""

from benchmarks.conftest import full_sweep_enabled, run_once
from repro.experiments.figures_adaptive import fig12a_scenario, fig12b_scenario
from repro.experiments.scenarios import figure_rows


def _queries():
    return None if full_sweep_enabled() else ["query1"]


def test_fig12a_spatial_skew(benchmark, repro_scale, show):
    rows = run_once(benchmark, figure_rows, fig12a_scenario(_queries()), repro_scale)
    show("Figure 12a -- spatial skew: traffic (KB) per optimization setting", rows)
    for query in {row["query"] for row in rows}:
        subset = {r["setting"]: r["total_traffic_kb"] for r in rows if r["query"] == query}
        best_learning = min(subset["Sel1 learn"], subset["Sel2 learn"])
        worst_static = max(subset["Sel1"], subset["Sel2"])
        # Learning never ends up worse than the worst static mis-configuration.
        assert best_learning <= worst_static * 1.05


def test_fig12b_temporal_drift(benchmark, repro_scale, show):
    rows = run_once(benchmark, figure_rows, fig12b_scenario(_queries()), repro_scale)
    show("Figure 12b -- temporal drift: traffic (KB) per optimization setting", rows)
    for query in {row["query"] for row in rows}:
        subset = {r["setting"]: r["total_traffic_kb"] for r in rows if r["query"] == query}
        assert subset["Full knowledge"] > 0
        best_learning = min(subset["Sel1 learn"], subset["Sel2 learn"])
        worst_static = max(subset["Sel1"], subset["Sel2"])
        assert best_learning <= worst_static * 1.10
