"""Figure 16: path quality in a 100-node mote network (Appendix C).

Expected shape (paper): the multi-tree substrate yields significantly shorter
paths than a single tree and than GPSR-based hashing, approaching the full
connectivity graph as trees are added, while keeping the maximum node load low.
"""

from benchmarks.conftest import run_once
from repro.experiments.scenarios import figure_rows


def test_fig16_path_quality_mote(benchmark, repro_scale, show):
    rows = run_once(benchmark, figure_rows, "fig16", repro_scale)
    show("Figure 16 -- mote network path quality", rows)
    for topology in {row["topology"] for row in rows}:
        subset = {row["scheme"]: row for row in rows if row["topology"] == topology}
        assert subset["3-tree"]["avg_path_length"] <= subset["1-tree"]["avg_path_length"]
        assert subset["full-graph"]["avg_path_length"] <= subset["3-tree"]["avg_path_length"]
        # Geographic hashing ignores locality: longer paths than 3 trees.
        assert subset["gpsr"]["avg_path_length"] >= subset["3-tree"]["avg_path_length"]
