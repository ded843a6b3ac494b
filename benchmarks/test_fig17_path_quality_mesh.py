"""Figure 17: path quality on an 802.11 mesh network with a DHT (Appendix C).

Expected shape (paper): the trends match the mote results; the DHT produces
slightly better path lengths than GPSR (no perimeter walks) but concentrates
more load on its home nodes than the trees do.
"""

from benchmarks.conftest import run_once
from repro.experiments.scenarios import figure_rows


def test_fig17_path_quality_mesh(benchmark, repro_scale, show):
    rows = run_once(benchmark, figure_rows, "fig17", repro_scale)
    show("Figure 17 -- mesh network path quality", rows)
    for topology in {row["topology"] for row in rows}:
        subset = {row["scheme"]: row for row in rows if row["topology"] == topology}
        assert subset["3-tree"]["avg_path_length"] <= subset["1-tree"]["avg_path_length"]
        # The DHT rendezvous detour costs path length vs the multi-tree routes.
        assert subset["dht"]["avg_path_length"] >= subset["3-tree"]["avg_path_length"] * 0.9
