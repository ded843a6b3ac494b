"""Tests for scales, the strategy factory, run_single, aggregation and reporting."""

import pytest

from repro.core import Selectivities
from repro.engine import (
    FIGURE2_ALGORITHMS,
    MESH_ALGORITHMS,
    SCALES,
    AggregateResult,
    RunResult,
    ScenarioSpec,
    SweepRunner,
    build_topology,
    build_workload,
    make_strategy,
    run_single,
    scale_from_env,
)
from repro.engine.registry import STRATEGIES
from repro.experiments.report import format_table, sweep_to_rows
from repro.joins import InnetJoin, NaiveJoin
from repro.workloads.queries import build_query1

SMOKE = SCALES["smoke"]


def comparison(algorithms=("naive", "base"), query="query1", scale=SMOKE):
    """Several algorithms on one Query 1 workload, aggregated over the runs."""
    scenario = ScenarioSpec(
        name="comparison-test",
        query=query,
        algorithms=tuple(algorithms),
        data={"sigma_s": 0.5, "sigma_t": 0.5, "sigma_st": 0.2},
    )
    return SweepRunner().run(scenario, scale)


class TestScales:
    def test_presets_exist(self):
        assert set(SCALES) == {"smoke", "default", "paper"}
        assert SCALES["paper"].runs == 9
        assert SCALES["paper"].cycles == 100

    def test_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert scale_from_env().name == "smoke"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(KeyError):
            scale_from_env()
        monkeypatch.delenv("REPRO_SCALE")
        assert scale_from_env("default").name == "default"


class TestStrategyFactory:
    def test_all_figure_algorithms_available(self):
        names = STRATEGIES.names()
        for name in FIGURE2_ALGORITHMS + MESH_ALGORITHMS:
            assert name in names

    def test_make_strategy(self):
        assert isinstance(make_strategy("naive"), NaiveJoin)
        assert isinstance(make_strategy("innet-cmpg"), InnetJoin)
        assert make_strategy("innet-cmpg").name == "innet-cmpg"
        assert make_strategy("innet-learn").variant.learning

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError):
            make_strategy("quantum-join")


class TestRunners:
    def test_run_single_produces_report(self):
        topology = build_topology(SMOKE, preset="moderate", seed=0)
        query = build_query1()
        selectivities = Selectivities(0.5, 0.5, 0.2)
        data_source = build_workload(topology, query, selectivities, seed=1)
        result = run_single(query, topology, data_source, "base", selectivities,
                            cycles=5, seed=0)
        assert isinstance(result, RunResult)
        assert result.report.total_traffic > 0
        assert result.metric("total_traffic") == result.report.total_traffic

    def test_scenario_sweep_aggregates(self):
        results = comparison().only()
        assert set(results) == {"naive", "base"}
        for aggregate in results.values():
            assert isinstance(aggregate, AggregateResult)
            assert len(aggregate.runs) == SMOKE.runs
            assert aggregate.mean("total_traffic") > 0
            assert aggregate.confidence_95("total_traffic") >= 0.0

    def test_confidence_interval_with_multiple_runs(self):
        two_run_scale = SCALES["smoke"].__class__(
            name="two", runs=2, cycles=5, num_nodes=60, long_cycles=10
        )
        aggregate = comparison(algorithms=["naive"], scale=two_run_scale).only()["naive"]
        assert len(aggregate.runs) == 2
        assert aggregate.confidence_95("total_traffic") >= 0.0


class TestReporting:
    def test_sweep_rows_and_format(self):
        rows = sweep_to_rows(comparison(), metrics=("total_traffic",))
        assert len(rows) == 2
        assert {row["algorithm"] for row in rows} == {"naive", "base"}
        assert "total_traffic_ci95_kb" in rows[0]
        table = format_table(rows, title="Figure X")
        assert "Figure X" in table
        assert "naive" in table
        assert format_table([]) == "(no rows)"
