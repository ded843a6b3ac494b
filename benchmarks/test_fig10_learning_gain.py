"""Figure 10: learning gains/losses under wrong initial estimates.

Expected shape (paper): under incorrect initial selectivities learning always
yields large gains; with correct estimates the learning overhead is small.
"""

from benchmarks.conftest import full_sweep_enabled, run_once
from repro.experiments.figures_adaptive import fig10_scenario
from repro.experiments.scenarios import figure_rows


def test_fig10_learning_gain(benchmark, repro_scale, show):
    if full_sweep_enabled():
        queries, ratios = None, None
    else:
        queries = ["query1"]
        ratios = ["1/10:1", "1:1/10"]
    scenario = fig10_scenario(queries=queries, true_ratios=ratios,
                              estimated_ratios=ratios)
    rows = run_once(benchmark, figure_rows, scenario, repro_scale)
    show(
        "Figure 10 -- traffic (KB) with and without learning",
        rows,
        columns=["query", "true_ratio", "estimated_ratio", "correct_estimate",
                 "no_learning_kb", "learning_kb", "gain_kb", "reoptimizations"],
    )
    wrong_rows = [r for r in rows if not r["correct_estimate"]]
    correct_rows = [r for r in rows if r["correct_estimate"]]
    # Wrong estimates: learning recovers traffic on average.
    assert sum(r["gain_kb"] for r in wrong_rows) > 0
    # Correct estimates: the learning overhead stays moderate.
    for row in correct_rows:
        assert row["learning_kb"] <= row["no_learning_kb"] * 1.35
