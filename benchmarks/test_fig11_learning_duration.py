"""Figure 11: effect of run duration on learning (Query 0, sigma_st = 20 %).

Expected shape (paper): as runs get longer (200 -> 800 cycles), performance
under incorrect initial estimates approaches performance under correct ones,
largely removing the need to know selectivities in advance.
"""

from benchmarks.conftest import run_once
from repro.experiments.figures_adaptive import fig11_scenario
from repro.experiments.scenarios import figure_rows


def test_fig11_learning_duration(benchmark, repro_scale, show):
    durations = [repro_scale.long_cycles, 2 * repro_scale.long_cycles]
    rows = run_once(benchmark, figure_rows, fig11_scenario(durations), repro_scale)
    show(
        "Figure 11 -- Query 0 learning vs run duration",
        rows,
        columns=["cycles", "true_ratio", "estimated_ratio", "correct_estimate",
                 "no_learning_kb", "learning_kb", "gain_kb"],
    )

    def relative_penalty(cycles):
        """Traffic of wrong-estimate+learning relative to correct-estimate."""
        penalties = []
        for true_ratio in {r["true_ratio"] for r in rows}:
            group = [r for r in rows if r["cycles"] == cycles
                     and r["true_ratio"] == true_ratio]
            correct = next(r for r in group if r["correct_estimate"])
            for row in group:
                if not row["correct_estimate"]:
                    penalties.append(row["learning_kb"] / max(correct["learning_kb"], 1e-9))
        return sum(penalties) / len(penalties)

    # Longer runs shrink the penalty of having started with wrong estimates.
    assert relative_penalty(durations[-1]) <= relative_penalty(durations[0]) * 1.10
