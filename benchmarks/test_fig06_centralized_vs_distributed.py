"""Figure 6: centralized vs distributed initiation.

Expected shape (paper): the distributed scheme is up to ~3x cheaper at the
base station and up to ~5x lower latency than centralized optimization.
"""

from benchmarks.conftest import run_once
from repro.experiments.scenarios import figure_rows


def test_fig06_centralized_vs_distributed(benchmark, repro_scale, show):
    rows = run_once(benchmark, figure_rows, "fig06", repro_scale)
    show("Figure 6 -- initiation traffic at the base (KB) and latency (cycles)", rows)
    by_scheme = {row["scheme"]: row for row in rows}
    centralized, distributed = by_scheme["centralized"], by_scheme["distributed"]
    assert centralized["traffic_at_base_kb"] > 1.5 * distributed["traffic_at_base_kb"]
    assert centralized["latency_cycles"] > 2.0 * distributed["latency_cycles"]
