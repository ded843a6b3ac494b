"""Figure 14: effect of join-node failure on delay and traffic.

Expected shape (paper): failing the join node halfway through the run adds a
few cycles of result delay, and the traffic afterwards behaves like joining
at the base station; no results are lost.
"""

from benchmarks.conftest import run_once
from repro.experiments.scenarios import figure_rows


def test_fig14_failure(benchmark, repro_scale, show):
    rows = run_once(benchmark, figure_rows, "fig14", repro_scale)
    show("Figure 14 -- join-node failure: result delay (cycles) and traffic (KB)", rows)
    for sigma_st in {row["sigma_st"] for row in rows}:
        subset = {r["setting"]: r for r in rows if r["sigma_st"] == sigma_st}
        no_failure = subset["no_failure"]
        with_failure = subset["with_failure"]
        assert with_failure["delay_cycles"] >= no_failure["delay_cycles"]
        # The computation keeps going: no result is lost or added.
        assert with_failure["results"] == no_failure["results"]
