"""Tests for the SweepRunner: parallel == serial, resume, registries, caches."""

import pytest

from repro.engine import (
    SCALES,
    ResultStore,
    ScenarioSpec,
    SweepRunner,
    register_strategy,
    reset_workload_caches,
)
from repro.engine.registry import STRATEGIES
from repro.engine import workload
from repro.engine.workload import TOPOLOGY_CACHE_MAX, build_topology
from repro.experiments.scenarios import BUILTIN_SCENARIOS, resolve_scenario

SMOKE = SCALES["smoke"]
METRICS = ("total_traffic", "base_traffic", "max_node_load")


def fig2_smoke_sweep():
    """A reduced Figure 2 sweep: 2 grid points x 3 algorithms."""
    return ScenarioSpec(
        name="fig02-runner-test",
        query="query1",
        algorithms=("naive", "base", "innet"),
        data={"ratio": "1/2:1/2", "sigma_st": 0.2},
        grid={"sigma_st": [0.2, 0.05]},
        runs=2,
        cycles=5,
    )


def _aggregate_table(sweep):
    table = {}
    for group in sweep.groups:
        for algorithm, aggregate in group.aggregates.items():
            key = (tuple(sorted(group.setting.items())), algorithm)
            table[key] = {
                metric: (aggregate.mean(metric), aggregate.confidence_95(metric))
                for metric in METRICS
            }
    return table


class TestParallelEqualsSerial:
    def test_fig2_smoke_aggregates_identical(self):
        # adaptive=False forces the pool path even on single-CPU machines,
        # so the parity claim is about actual cross-process execution
        scenario = fig2_smoke_sweep()
        serial = SweepRunner(jobs=1).run(scenario, SMOKE)
        parallel = SweepRunner(jobs=2, adaptive=False).run(scenario, SMOKE)
        assert serial.executed == parallel.executed == 12
        # means AND CI95s must match the serial reference bit-for-bit
        assert _aggregate_table(serial) == _aggregate_table(parallel)

    def test_group_order_matches_grid_declaration(self):
        sweep = SweepRunner(jobs=2, adaptive=False).run(fig2_smoke_sweep(), SMOKE)
        assert [group.setting["sigma_st"] for group in sweep.groups] == [0.2, 0.05]
        for group in sweep.groups:
            assert list(group.aggregates) == ["naive", "base", "innet"]
            for aggregate in group.aggregates.values():
                assert [run.seed for run in aggregate.runs] == [0, 1]


class TestResume:
    def test_completed_runs_are_skipped(self, tmp_path):
        scenario = fig2_smoke_sweep()
        store = ResultStore(tmp_path / "results.sqlite")
        first = SweepRunner(jobs=1, store=store).run(scenario, SMOKE)
        assert (first.executed, first.from_store) == (12, 0)

        again = SweepRunner(jobs=2, store=store).run(scenario, SMOKE)
        assert (again.executed, again.from_store) == (0, 12)
        assert _aggregate_table(first) == _aggregate_table(again)

    def test_partial_resume_runs_only_missing(self, tmp_path):
        store = ResultStore(tmp_path / "results.sqlite")
        small = fig2_smoke_sweep().with_overrides(algorithms=("naive",))
        SweepRunner(store=store).run(small, SMOKE)

        full = SweepRunner(store=store).run(fig2_smoke_sweep(), SMOKE)
        assert full.from_store == 4     # the naive runs
        assert full.executed == 8       # base + innet

    def test_no_resume_re_executes(self, tmp_path):
        store = ResultStore(tmp_path / "results.sqlite")
        scenario = fig2_smoke_sweep()
        SweepRunner(store=store).run(scenario, SMOKE)
        forced = SweepRunner(store=store, resume=False).run(scenario, SMOKE)
        assert (forced.executed, forced.from_store) == (12, 0)

    def test_store_accepts_path(self, tmp_path):
        path = tmp_path / "sub" / "results.sqlite"
        runner = SweepRunner(store=path)
        runner.run(fig2_smoke_sweep().with_overrides(algorithms=("naive",)), SMOKE)
        assert path.exists()

    def test_changed_spec_misses_store(self, tmp_path):
        store = ResultStore(tmp_path / "results.sqlite")
        scenario = fig2_smoke_sweep()
        SweepRunner(store=store).run(scenario, SMOKE)
        changed = SweepRunner(store=store).run(
            scenario.with_overrides(cycles=6), SMOKE
        )
        assert changed.from_store == 0


class TestSweepResult:
    def test_only_requires_single_group(self):
        sweep = SweepRunner().run(fig2_smoke_sweep(), SMOKE)
        with pytest.raises(ValueError, match="grid point"):
            sweep.only()

    def test_rows_have_metric_columns(self):
        sweep = SweepRunner().run(fig2_smoke_sweep(), SMOKE)
        rows = sweep.rows()
        assert len(rows) == 6
        assert {"sigma_st", "algorithm", "total_traffic_kb",
                "total_traffic_ci95_kb"} <= set(rows[0])


class TestRegistries:
    def test_register_strategy_hook(self):
        @register_strategy("test-naive-alias")
        def _build(**kwargs):
            return STRATEGIES.create("naive")

        try:
            scenario = fig2_smoke_sweep().with_overrides(
                algorithms=("test-naive-alias",), grid={}, runs=1
            )
            sweep = SweepRunner().run(scenario, SMOKE)
            assert sweep.only()["test-naive-alias"].mean("total_traffic") > 0
        finally:
            del STRATEGIES._builders["test-naive-alias"]

    def test_unknown_algorithm_lists_choices(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            STRATEGIES.create("quantum-join")

    def test_builtin_scenarios_resolve_and_expand(self):
        for name in BUILTIN_SCENARIOS:
            scenario = resolve_scenario(name)
            assert scenario.expand(SMOKE)
        with pytest.raises(KeyError, match="unknown scenario"):
            resolve_scenario("fig99")


def workload_cache_stats():
    """How many entries each workload cache holds."""
    return {
        "topologies": len(workload._TOPOLOGY_CACHE),
        "queries": len(workload._QUERY_CACHE),
        "data_sources": len(workload._DATA_SOURCE_CACHE),
        "providers": len(workload._PROVIDER_CACHE),
    }


class TestWorkloadCaches:
    def test_reset_clears_everything(self):
        SweepRunner().run(fig2_smoke_sweep().with_overrides(
            algorithms=("naive",), grid={}, runs=1), SMOKE)
        assert workload_cache_stats()["topologies"] > 0
        reset_workload_caches()
        assert workload_cache_stats() == {
            "topologies": 0, "queries": 0, "data_sources": 0, "providers": 0,
        }

    def test_topology_cache_is_bounded(self):
        reset_workload_caches()
        for seed in range(TOPOLOGY_CACHE_MAX + 5):
            build_topology(SMOKE, preset="moderate", seed=seed, num_nodes=10)
        assert workload_cache_stats()["topologies"] <= TOPOLOGY_CACHE_MAX
        reset_workload_caches()
