"""Figure 5: load distribution of the 15 most loaded nodes, Query 1.

Expected shape (paper): all strategies exhibit similar, steeply decreasing
load profiles; the grouped-at-base strategies concentrate the highest load at
the node(s) next to the base station.
"""

from benchmarks.conftest import run_once
from repro.experiments.scenarios import figure_rows


def test_fig05_load_distribution(benchmark, repro_scale, show):
    rows = run_once(benchmark, figure_rows, "fig05", repro_scale)
    show(
        "Figure 5 -- per-node load (KB) of the 15 most loaded nodes",
        rows,
        columns=["algorithm", "rank", "node", "load_kb"],
    )
    algorithms = {row["algorithm"] for row in rows}
    assert {"naive", "base", "innet", "innet-cmg", "innet-cmpg"} <= algorithms
    for algorithm in algorithms:
        loads = [r["load_kb"] for r in rows if r["algorithm"] == algorithm]
        assert loads == sorted(loads, reverse=True)
        assert loads[0] > 0
