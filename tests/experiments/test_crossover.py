"""Strategy-crossover scenario family: spec shape, workload and row shapers."""

from types import SimpleNamespace

from repro.engine import SCALES
from repro.engine.registry import query_builder_for
from repro.experiments.figures_crossover import (
    CROSSOVER_RUNGS,
    crossover_rows,
    strategy_crossover_scenario,
    strategy_crossover_smoke_scenario,
)
from repro.experiments.scenarios import BUILTIN_SCENARIOS, SCENARIO_TABLE_SHAPERS
from repro.network.topology import random_topology
from repro.query.analysis import analyze_query

SMOKE = SCALES["smoke"]


# ---------------------------------------------------------------------------
# Fake sweep plumbing for the row shapers
# ---------------------------------------------------------------------------

class FakeAggregate:
    def __init__(self, means):
        self._means = means

    def mean(self, metric):
        return self._means[metric]


def fake_sweep(name, groups):
    return SimpleNamespace(
        scenario=SimpleNamespace(name=name),
        groups=[SimpleNamespace(setting=setting, aggregates=aggregates)
                for setting, aggregates in groups],
    )


def _traffic(total):
    return FakeAggregate({"total_traffic": float(total)})


class TestScenarioSpecs:
    def test_full_scenario_shape(self):
        scenario = strategy_crossover_scenario()
        assert scenario.query == "query0-near"
        assert scenario.grid["num_nodes"] == list(CROSSOVER_RUNGS)
        assert set(scenario.grid) == {"num_nodes", "ratio", "sigma_st"}
        assert "hotspots" in scenario.sinks
        assert "hotspot_gini" in scenario.metrics
        assert scenario.algorithms[0] == "base"

    def test_registered_in_builtin_scenarios(self):
        assert "strategy-crossover" in BUILTIN_SCENARIOS
        assert "strategy-crossover-smoke" in BUILTIN_SCENARIOS
        assert (BUILTIN_SCENARIOS["strategy-crossover-smoke"]().name
                == "strategy-crossover-smoke")

    def test_smoke_is_ci_sized(self):
        scenario = strategy_crossover_smoke_scenario()
        # 2 rungs x 1 ratio x 1 selectivity x 3 strategies x 1 run
        assert scenario.grid["num_nodes"] == [1_000, 10_000]
        assert len(scenario.expand(SMOKE)) == 6


class TestQuery0Near:
    def test_endpoints_are_deep_neighbors_and_deterministic(self):
        topology = random_topology(num_nodes=120, average_degree=7, seed=11)
        builder = query_builder_for("query0-near")
        query = builder(topology, seed=1)
        analysis = analyze_query(query)
        endpoints = {
            alias: next(n for n in topology.node_ids
                        if analysis.node_eligible(alias, {"id": n}))
            for alias in ("S", "T")
        }
        source, target = endpoints["S"], endpoints["T"]
        assert topology.base_id not in (source, target)
        assert target in topology.neighbors(source) or \
            source in topology.neighbors(target)
        # the source endpoint sits among the deepest nodes of the tree
        depths = topology.shortest_hops_view(topology.base_id)
        max_depth = max(depths.get(n, 0) for n in topology.node_ids)
        assert max(depths.get(source, 0), depths.get(target, 0)) >= max_depth - 1
        # deterministic for a fixed topology and seed
        assert str(builder(topology, seed=1).where) == str(query.where)

    def test_seed_rotates_endpoint_choice(self):
        topology = random_topology(num_nodes=120, average_degree=7, seed=11)
        builder = query_builder_for("query0-near")
        wheres = {str(builder(topology, seed=s).where) for s in range(8)}
        assert len(wheres) > 1


class TestCrossoverRows:
    def test_finds_smallest_winning_rung_per_cell(self):
        sweep = fake_sweep("strategy-crossover", [
            ({"num_nodes": 1_000, "ratio": "1/2:1/2"},
             {"base": _traffic(5_000), "innet": _traffic(6_000)}),
            ({"num_nodes": 10_000, "ratio": "1/2:1/2"},
             {"base": _traffic(50_000), "innet": _traffic(20_000)}),
        ])
        rows = crossover_rows(sweep)
        assert len(rows) == 1
        row = rows[0]
        assert row["algorithm"] == "innet"
        assert row["crossover_n"] == 10_000
        assert row["base_kb"] == 50.0
        assert row["innet_kb"] == 20.0
        assert round(row["savings_pct"]) == 60

    def test_cell_that_never_wins_still_emits_a_row(self):
        sweep = fake_sweep("strategy-crossover", [
            ({"num_nodes": 1_000, "ratio": "1:1/10"},
             {"base": _traffic(1_000), "innet": _traffic(2_000)}),
            ({"num_nodes": 10_000, "ratio": "1:1/10"},
             {"base": _traffic(3_000), "innet": _traffic(4_000)}),
        ])
        rows = crossover_rows(sweep)
        assert len(rows) == 1
        assert rows[0]["crossover_n"] == "none"
        assert "savings_pct" not in rows[0]

    def test_one_row_per_cell_and_variant(self):
        cells = []
        for ratio in ("1/2:1/2", "1:1/10"):
            for num_nodes in (1_000, 10_000):
                cells.append((
                    {"num_nodes": num_nodes, "ratio": ratio},
                    {"base": _traffic(10_000),
                     "innet": _traffic(num_nodes),
                     "innet-cmpg": _traffic(num_nodes // 2)},
                ))
        rows = crossover_rows(fake_sweep("strategy-crossover", cells))
        assert len(rows) == 4  # 2 cells x 2 variants
        assert all(row["crossover_n"] == 1_000 for row in rows)


class TestTableDispatch:
    def test_crossover_shaper_dispatches_by_scenario_name(self):
        sweep = fake_sweep("strategy-crossover", [
            ({"num_nodes": 1_000, "ratio": "1/2:1/2"},
             {"base": _traffic(2_000), "innet": _traffic(1_000)}),
        ])
        for name in ("strategy-crossover", "strategy-crossover-smoke"):
            assert SCENARIO_TABLE_SHAPERS[name](sweep) == crossover_rows(sweep)
        assert "energy-budget" not in SCENARIO_TABLE_SHAPERS
