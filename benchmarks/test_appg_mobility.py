"""Appendix G: mobile leaf nodes.

Expected shape (paper): moving a leaf node in the medium random topology
requires on the order of a kilobyte of summary-update traffic and around
twenty cycles to propagate, supporting continuous connectivity at roughly
0.5 m/s for a 10 m radio range.
"""

from benchmarks.conftest import run_once
from repro.experiments.scenarios import figure_rows
from repro.network.mobility import max_supported_speed


def test_appg_mobility(benchmark, repro_scale, show):
    rows = run_once(benchmark, figure_rows, "appg", repro_scale)
    show("Appendix G -- leaf mobility: update traffic and propagation delay", rows)
    assert rows
    mean_traffic = sum(r["update_traffic_bytes"] for r in rows) / len(rows)
    mean_cycles = sum(r["propagation_cycles"] for r in rows) / len(rows)
    # Same order of magnitude as the paper's 1.2 kB / ~20 cycles.
    assert 200 <= mean_traffic <= 20_000
    assert 2 <= mean_cycles <= 60
    # The derived sustainable movement speed is in the fraction-of-m/s range.
    speed = max_supported_speed(10.0, mean_cycles)
    assert 0.05 <= speed <= 5.0
