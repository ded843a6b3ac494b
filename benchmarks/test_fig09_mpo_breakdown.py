"""Figure 9: breakdown of the MPO contributions.

Expected shape (paper): (a) Naive stops being competitive beyond ~30 cycles;
the Innet variants win for longer runs.  (b) At long durations Innet-cmg and
Innet-cmpg improve on plain Innet, and Innet-cmpg is never worse than
Innet-cmg.
"""

from benchmarks.conftest import run_once
from repro.experiments.figures_joins import fig09a_scenario
from repro.experiments.scenarios import figure_rows


def test_fig09a_method_vs_duration(benchmark, repro_scale, show):
    # The longest run needs >= 40 cycles for the in-network family to amortize
    # its initiation; the floor only lifts smoke's 5/10/20 to 10/20/40.
    scenario = fig09a_scenario().with_overrides(min_cycles=20)
    rows = run_once(benchmark, figure_rows, scenario, repro_scale)
    show("Figure 9a -- Query 2 total traffic (KB) vs run duration", rows)
    durations = sorted({row["cycles"] for row in rows})
    for algorithm in {row["algorithm"] for row in rows}:
        series = [r["total_traffic_kb"] for r in rows if r["algorithm"] == algorithm]
        assert all(later >= earlier * 0.9 for earlier, later in zip(series, series[1:]))
    # At the longest duration the in-network family beats Naive.
    longest = durations[-1]
    subset = {r["algorithm"]: r["total_traffic_kb"] for r in rows if r["cycles"] == longest}
    assert min(subset["innet-cm"], subset["innet-cmg"], subset["innet-cmpg"]) < subset["naive"]


def test_fig09b_traffic_vs_join_selectivity(benchmark, repro_scale, show):
    rows = run_once(benchmark, figure_rows, "fig09b", repro_scale)
    show("Figure 9b -- Innet variants, total traffic (KB) vs join selectivity", rows)
    for sigma_st in {row["sigma_st"] for row in rows}:
        subset = {r["algorithm"]: r["total_traffic_kb"] for r in rows
                  if r["sigma_st"] == sigma_st}
        assert subset["innet-cm"] <= subset["innet"] * 1.05
        assert subset["innet-cmpg"] <= subset["innet-cmg"] * 1.05
