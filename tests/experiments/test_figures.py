"""Smoke-scale integration tests for every figure: scenario factory + shaper.

Each test builds the figure's scenario from its factory, runs it through
:func:`~repro.experiments.scenarios.figure_rows` at the tiny ``smoke`` scale
and checks the
structural properties the paper's figure relies on (who is compared, which
columns exist, basic sanity of the trend) without asserting exact magnitudes.
"""

import pytest

from repro.engine import SCALES
from repro.experiments import figures_adaptive as adaptive
from repro.experiments import figures_joins as joins
from repro.experiments import figures_substrate as substrate
from repro.experiments.scenarios import figure_rows

SMOKE = SCALES["smoke"]


class TestJoinFigures:
    def test_fig02_structure(self):
        rows = figure_rows(joins.query_traffic_scenario(
            "query1", "fig02", ratios=["1/2:1/2"], join_selectivities=[0.2]
        ), SMOKE)
        algorithms = {row["algorithm"] for row in rows}
        assert algorithms == {"naive", "base", "ght", "innet", "innet-cmg", "innet-cmpg"}
        assert all(row["total_traffic_kb"] > 0 for row in rows)
        assert all(row["base_traffic_kb"] > 0 for row in rows)

    def test_fig03_structure(self):
        rows = figure_rows(joins.query_traffic_scenario(
            "query2", "fig03", ratios=["1/10:1"], join_selectivities=[0.1]
        ), SMOKE)
        assert len(rows) == 6
        naive = next(r for r in rows if r["algorithm"] == "naive")
        ght = next(r for r in rows if r["algorithm"] == "ght")
        assert ght["total_traffic_kb"] > 0 and naive["total_traffic_kb"] > 0

    def test_fig04_true_estimate_is_competitive(self):
        rows = figure_rows(joins.fig04_scenario(
            true_ratios=["1/10:1"],
            estimated_ratios=["1/10:1", "1:1/10"],
        ), SMOKE)
        assert len(rows) == 2
        true_row = next(r for r in rows if r["is_true_estimate"])
        other_row = next(r for r in rows if not r["is_true_estimate"])
        # Query 0's single pair: optimizing for the true ratio is never worse.
        assert true_row["total_traffic_kb"] <= other_row["total_traffic_kb"] * 1.05

    def test_fig05_ranks_descend(self):
        rows = figure_rows(joins.fig05_scenario(algorithms=["naive", "innet-cmg"]),
                           SMOKE)
        naive_rows = [r for r in rows if r["algorithm"] == "naive"]
        loads = [r["load_kb"] for r in naive_rows]
        assert loads == sorted(loads, reverse=True)

    def test_fig06_centralized_worse_at_base_and_latency(self):
        rows = figure_rows(joins.fig06_scenario(), SMOKE)
        centralized = next(r for r in rows if r["scheme"] == "centralized")
        distributed = next(r for r in rows if r["scheme"] == "distributed")
        assert centralized["traffic_at_base_kb"] > distributed["traffic_at_base_kb"]
        assert centralized["latency_cycles"] > distributed["latency_cycles"]

    def test_fig07_distributed_close_to_optimal(self):
        rows = figure_rows(joins.fig07_scenario(num_pairs=8), SMOKE)
        assert {row["topology"] for row in rows} == {
            "dense", "medium", "moderate", "sparse", "grid"
        }
        for row in rows:
            assert row["distributed_cost"] >= row["optimal_cost"] - 1e-9
            if row["workload"] == "paper(1,0,0)":
                # The paper's workload: the optimizer matches the optimum.
                assert row["overhead_percent"] <= 5.0
            else:
                # Symmetric variant: tree paths may not contain the global
                # optimum, but the gap stays bounded.
                assert row["overhead_percent"] <= 60.0

    def test_fig08_contains_both_queries(self):
        rows = figure_rows(joins.fig08_scenario(
            true_ratios=["1/2:1/2"], estimated_ratios=["1/2:1/2"]
        ), SMOKE)
        assert {row["query"] for row in rows} == {"query1", "query2"}

    def test_fig09a_traffic_grows_with_duration(self):
        rows = figure_rows(joins.fig09a_scenario(
            algorithms=["naive", "innet-cmg"], durations=[5, 20]
        ), SMOKE)
        naive = {r["cycles"]: r["total_traffic_kb"] for r in rows if r["algorithm"] == "naive"}
        assert naive[20] > naive[5]

    def test_fig09b_mpo_variants(self):
        rows = figure_rows(joins.fig09b_scenario(
            join_selectivities=[0.2], cycles=15
        ), SMOKE)
        assert {r["algorithm"] for r in rows} == {"innet", "innet-cm", "innet-cmg",
                                                  "innet-cmpg"}
        plain = next(r for r in rows if r["algorithm"] == "innet")
        cm = next(r for r in rows if r["algorithm"] == "innet-cm")
        cmg = next(r for r in rows if r["algorithm"] == "innet-cmg")
        cmpg = next(r for r in rows if r["algorithm"] == "innet-cmpg")
        # Multicast sharing is a pure win over per-pair unicast; the grouped
        # variants add initiation traffic that only pays off on longer runs
        # (Figure 9a), so here we only require they stay in the same ballpark.
        assert cm["total_traffic_kb"] <= plain["total_traffic_kb"] * 1.05
        assert cmpg["total_traffic_kb"] <= cmg["total_traffic_kb"] * 1.05


class TestAdaptiveFigures:
    def test_fig10_gain_for_wrong_estimates(self):
        rows = figure_rows(adaptive.fig10_scenario(
            queries=["query1"],
            true_ratios=["1/10:1"], estimated_ratios=["1/10:1", "1:1/10"],
        ), SMOKE)
        assert len(rows) == 2
        for row in rows:
            assert row["no_learning_kb"] > 0
            assert row["learning_kb"] > 0

    def test_fig11_duration_rows(self):
        rows = figure_rows(adaptive.fig11_scenario(durations=[10, 20]), SMOKE)
        assert {row["cycles"] for row in rows} == {10, 20}

    def test_fig12a_settings(self):
        rows = figure_rows(adaptive.fig12a_scenario(queries=["query1"]), SMOKE)
        settings = {row["setting"] for row in rows}
        assert settings == {"Sel1", "Sel2", "Full knowledge", "Sel1 learn", "Sel2 learn"}

    def test_fig12b_settings(self):
        rows = figure_rows(adaptive.fig12b_scenario(queries=["query1"]), SMOKE)
        settings = {row["setting"] for row in rows}
        assert "Full knowledge" in settings
        assert "Sel1 learn" in settings

    def test_fig13_intel_orderings(self):
        rows = figure_rows(adaptive.fig13_scenario(cycles=15), SMOKE)
        by_setting = {row["setting"]: row for row in rows}
        assert set(by_setting) == {
            "yang07", "ght_gpsr", "naive_base", "innet_full_knowledge", "innet_learn",
        }
        # GHT/GPSR routes over hash locations: the most traffic (log-scale bar).
        assert by_setting["ght_gpsr"]["total_traffic_kb"] == max(
            row["total_traffic_kb"] for row in rows
        )
        assert by_setting["innet_full_knowledge"]["total_traffic_kb"] <= (
            by_setting["naive_base"]["total_traffic_kb"] * 1.05
        )

    def test_fig14_failure_increases_delay(self):
        rows = figure_rows(adaptive.fig14_scenario(join_selectivities=(0.2,)),
                           SMOKE)
        by_setting = {row["setting"]: row for row in rows}
        assert by_setting["with_failure"]["delay_cycles"] >= (
            by_setting["no_failure"]["delay_cycles"]
        )

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: InnetJoin._finish_recoveries replays each producer's "
        "last window to the base and probes it against a fresh window, so "
        "pairs the dead join node already joined are joined again "
        "(29 results with the failure, 27 without); ROADMAP item 20"))
    def test_fig14_smoke_failure_adds_no_results(self):
        rows = figure_rows("fig14-smoke", SMOKE)
        by_setting = {row["setting"]: row for row in rows if row["sigma_st"] == 0.2}
        assert by_setting["with_failure"]["results"] <= (
            by_setting["no_failure"]["results"]
        )


class TestSubstrateFigures:
    def test_fig16_more_trees_shorter_paths(self):
        rows = figure_rows(
            substrate.path_quality_scenario("fig16", "gpsr", num_pairs=40), SMOKE
        )
        for topology in {row["topology"] for row in rows}:
            subset = {row["scheme"]: row for row in rows if row["topology"] == topology}
            assert subset["3-tree"]["avg_path_length"] <= subset["1-tree"]["avg_path_length"]
            assert subset["full-graph"]["avg_path_length"] <= subset["3-tree"]["avg_path_length"]

    def test_fig17_has_dht_scheme(self):
        rows = figure_rows(
            substrate.path_quality_scenario("fig17", "dht", num_pairs=30), SMOKE
        )
        assert any(row["scheme"] == "dht" for row in rows)

    def test_fig18_scaleup(self):
        rows = figure_rows(
            substrate.fig18_scenario(sizes=(49, 100), num_pairs=30), SMOKE
        )
        small = [r for r in rows if r["num_nodes"] == 49 and r["scheme"] == "3-tree"][0]
        large = [r for r in rows if r["num_nodes"] == 100 and r["scheme"] == "3-tree"][0]
        assert large["avg_path_length"] >= small["avg_path_length"] * 0.8

    def test_fig19_20_mesh_queries(self):
        rows = figure_rows(substrate.mesh_query_scenario(
            "query1", "fig19", ratios=["1/2:1/2"], join_selectivities=[0.1]
        ), SMOKE)
        assert {row["algorithm"] for row in rows} == {"naive", "base", "dht", "innet-cmg"}
        rows2 = figure_rows(substrate.mesh_query_scenario(
            "query2", "fig20", ratios=["1/2:1/2"], join_selectivities=[0.1]
        ), SMOKE)
        assert all(row["total_messages_k"] > 0 for row in rows2)

    def test_table3_validation(self):
        rows = figure_rows(substrate.table3_scenario(cycles=10), SMOKE)
        by_algorithm = {row["algorithm"]: row for row in rows}
        assert set(by_algorithm) == {"naive", "base", "yang07"}
        # The Naive formula has no free parameters: simulation matches closely.
        assert by_algorithm["naive"]["ratio"] == pytest.approx(1.0, abs=0.15)
        for row in rows:
            assert 0.3 <= row["ratio"] <= 1.7

    def test_appg_mobility(self):
        rows = figure_rows(substrate.appg_scenario(num_moves=2), SMOKE)
        assert rows
        for row in rows:
            assert row["update_traffic_bytes"] > 0
            assert row["propagation_cycles"] > 0
