"""Figure 18: mesh-network scale-up from 50 to 200 nodes (Appendix C).

Expected shape (paper): average path length grows slowly with network size,
additional trees keep helping, and the per-path normalized maximum load stays
flat -- the substrate scales.
"""

from benchmarks.conftest import run_once
from repro.experiments.scenarios import figure_rows


def test_fig18_mesh_scaleup(benchmark, repro_scale, show):
    rows = run_once(benchmark, figure_rows, "fig18", repro_scale)
    show("Figure 18 -- mesh scale-up: 50/100/200 nodes", rows)
    sizes = sorted({row["num_nodes"] for row in rows})
    assert sizes == [50, 100, 200]
    for num_nodes in sizes:
        subset = {row["scheme"]: row for row in rows if row["num_nodes"] == num_nodes}
        assert subset["3-tree"]["avg_path_length"] <= subset["1-tree"]["avg_path_length"]
        assert subset["3-tree"]["max_load_per_path"] <= 1.0
    # Path lengths grow sub-linearly (roughly with the network diameter).
    small = [r for r in rows if r["num_nodes"] == 50 and r["scheme"] == "3-tree"][0]
    large = [r for r in rows if r["num_nodes"] == 200 and r["scheme"] == "3-tree"][0]
    assert large["avg_path_length"] <= small["avg_path_length"] * 4.0
