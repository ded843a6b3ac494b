"""Engine integration of the instrumentation pipeline.

Covers the PR's acceptance bar: with default sinks the engine's traffic
output is bit-identical to uninstrumented execution on the fig02/fig14
smoke workloads, sink configs round-trip through spec serialization and the
result store (including the per-node metrics table), and empty-sink runs
keep their pre-metrics content hash so existing stores stay valid.
"""

import pytest

from repro.engine import (
    SCALES,
    ResultStore,
    ScenarioSpec,
    SweepRunner,
    execute_run,
)
from repro.engine.spec import ENGINE_VERSION, RunSpec, content_hash
from repro.engine.store import report_from_dict, report_to_dict
from repro.experiments.scenarios import BUILTIN_SCENARIOS

SMOKE = SCALES["smoke"]

TRAFFIC_FIELDS = ("total_traffic", "initiation_traffic", "computation_traffic",
                  "base_traffic", "max_node_load", "messages_dropped",
                  "results_produced", "results_delivered")


def _instrumented(scenario: ScenarioSpec) -> ScenarioSpec:
    return scenario.with_overrides(
        sinks=({"sink": "energy", "capacity_uj": 20_000.0}, "hotspots"),
    )


def _traffic_view(report):
    return tuple(getattr(report, field) for field in TRAFFIC_FIELDS) + (
        tuple(sorted(report.traffic_by_kind.items())),
        tuple(report.top_loaded_nodes),
    )


class TestTrafficBitIdentity:
    def _compare(self, scenario: ScenarioSpec):
        plain = scenario.expand(SMOKE)
        instrumented = _instrumented(scenario).expand(SMOKE)
        assert len(plain) == len(instrumented)
        for spec_plain, spec_inst in zip(plain, instrumented):
            report_plain = execute_run(spec_plain).report
            report_inst = execute_run(spec_inst).report
            assert _traffic_view(report_plain) == _traffic_view(report_inst)
            markers = ("energy_", "hotspot_")
            assert report_plain.extra == {
                key: value for key, value in report_inst.extra.items()
                if not any(marker in key for marker in markers)
            }
            assert report_inst.node_series

    def test_fig02_smoke_subset(self):
        scenario = BUILTIN_SCENARIOS["fig02-smoke"]().with_overrides(
            algorithms=("naive", "base", "innet-cmpg"),
            grid={"ratio": ["1/2:1/2"], "sigma_st": [0.2]},
        )
        self._compare(scenario)

    def test_fig14_smoke_phased(self):
        """Multi-phase runs (failure injection) stay bit-identical too, and
        gain per-phase sink snapshots."""
        scenario = BUILTIN_SCENARIOS["fig14-smoke"]()
        self._compare(scenario)
        spec = next(s for s in _instrumented(scenario).expand(SMOKE) if s.phases)
        report = execute_run(spec).report
        phase_keys = [key for key in report.extra
                      if key.startswith("phase_") and "energy_" in key]
        assert phase_keys  # cumulative energy snapshotted at phase boundaries


class TestSpecSinks:
    def test_scenario_round_trip_with_sinks(self):
        scenario = ScenarioSpec(
            name="with-sinks", query="query1", algorithms=("naive",),
            sinks=("energy", {"sink": "hotspots", "top_k": 5}),
        )
        clone = ScenarioSpec.from_json(scenario.to_json())
        assert clone == scenario
        assert clone.sinks == scenario.sinks

    def test_runspec_round_trip_with_sinks(self):
        scenario = ScenarioSpec(
            name="with-sinks", query="query1", algorithms=("naive",), cycles=3,
            sinks=({"sink": "energy", "capacity_uj": 1000.0},),
        )
        spec = scenario.expand(SMOKE)[0]
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.run_key() == spec.run_key()
        assert clone.sink_entries() == [{"sink": "energy", "capacity_uj": 1000.0}]

    def test_empty_sinks_keep_pre_metrics_hash(self):
        """Stored results from before the metrics subsystem stay valid.

        Pre-metrics payloads carry neither the ``sinks`` nor the
        ``node_series_cap`` knob; both are excluded from the run key at
        their defaults, so the historical content hashes remain
        addressable.  They do carry the retired forwarding-queue bound at
        its default, which the run key keeps hashing.
        """
        scenario = ScenarioSpec(name="plain", query="query1",
                                algorithms=("naive",), cycles=3)
        spec = scenario.expand(SMOKE)[0]
        legacy_payload = spec.to_dict()
        del legacy_payload["sinks"]
        del legacy_payload["node_series_cap"]
        legacy_payload["queue_capacity"] = None
        legacy_payload["engine_version"] = ENGINE_VERSION
        assert spec.run_key() == content_hash(legacy_payload)

    def test_sinks_change_the_run_key(self):
        base = ScenarioSpec(name="plain", query="query1",
                            algorithms=("naive",), cycles=3)
        plain = base.expand(SMOKE)[0]
        instrumented = base.with_overrides(sinks=("energy",)).expand(SMOKE)[0]
        assert plain.run_key() != instrumented.run_key()

    def test_sinks_grid_axis_sweeps_battery_capacities(self):
        scenario = ScenarioSpec(
            name="capacity-sweep", query="query1", algorithms=("naive",),
            runs=1, cycles=3,
            grid={"sinks": [
                [{"sink": "energy", "capacity_uj": 100.0}],
                [{"sink": "energy", "capacity_uj": 200.0}],
            ]},
        )
        specs = scenario.expand(SMOKE)
        assert len(specs) == 2
        capacities = {spec.sink_entries()[0]["capacity_uj"] for spec in specs}
        assert capacities == {100.0, 200.0}
        assert len({spec.run_key() for spec in specs}) == 2

    def test_grid_axis_sinks_still_produce_summary_rows(self):
        """Summary rows key off the reports, not the (empty) scenario-level
        sinks field, so a sinks grid axis is reported too."""
        from repro.experiments.report import sink_summary_rows

        scenario = ScenarioSpec(
            name="capacity-sweep", query="query1", algorithms=("naive",),
            runs=1, cycles=3,
            grid={"sinks": [
                [{"sink": "energy", "capacity_uj": 100.0}],
                [{"sink": "energy", "capacity_uj": 200.0}],
            ]},
        )
        with SweepRunner() as runner:
            sweep = runner.run(scenario, SMOKE)
        rows = sink_summary_rows(sweep)
        assert len(rows) == 2
        assert all("energy_total_uj" in row for row in rows)

    def test_cli_all_group_never_duplicates_sinks(self):
        """--metrics all on a scenario with its own sinks adds only the
        missing members."""
        from repro.experiments.cli import _apply_metric_sinks

        scenario = ScenarioSpec(
            name="dedupe", query="query1", algorithms=("naive",),
            sinks=("energy",),
        )
        augmented = _apply_metric_sinks(scenario, ("all",))
        assert augmented.sinks == ("energy", "hotspots")
        # idempotent once everything is present
        assert _apply_metric_sinks(augmented, ("all",)) is augmented
        # deduplication also applies within the request itself
        plain = ScenarioSpec(name="dedupe2", query="query1",
                             algorithms=("naive",))
        assert _apply_metric_sinks(plain, ("all", "energy", "energy")).sinks \
            == ("energy", "hotspots")

    def test_latency_preset_is_unknown(self):
        """No charge point emits deliveries, so a scenario naming the old
        ``latency`` preset fails with the unknown-preset error."""
        scenario = ScenarioSpec(name="latency", query="query1",
                                algorithms=("naive",), cycles=2,
                                sinks=("latency",))
        with pytest.raises(KeyError, match="unknown sink preset 'latency'"):
            execute_run(scenario.expand(SMOKE)[0])

    def test_malformed_sink_entry_rejected(self):
        with pytest.raises(ValueError, match="'sink' key"):
            ScenarioSpec(name="bad", sinks=({"capacity_uj": 1.0},))
        with pytest.raises(TypeError, match="preset name or a mapping"):
            ScenarioSpec(name="bad", sinks=(42,))


class TestStoreRoundTrip:
    def _instrumented_spec(self):
        scenario = ScenarioSpec(
            name="metrics-store", query="query1", algorithms=("naive",),
            cycles=3, sinks=("energy", "hotspots"),
        )
        return scenario.expand(SMOKE)[0]

    def test_report_dict_round_trip_with_node_series(self):
        report = execute_run(self._instrumented_spec()).report
        assert report.node_series
        clone = report_from_dict(report_to_dict(report))
        assert clone == report

    def test_store_round_trip_and_node_metrics_table(self, tmp_path):
        spec = self._instrumented_spec()
        report = execute_run(spec).report
        with ResultStore(tmp_path / "results.sqlite") as store:
            key = store.put(spec, report)
            loaded = store.get(key)
            assert loaded == report
            assert loaded.node_series == report.node_series
            rows = store.node_metrics(run_key=key, series="energy_uj")
            assert len(rows) == len(report.node_series["energy.energy_uj"])
            by_node = {row["node_id"]: row["value"] for row in rows}
            assert by_node == report.node_series["energy.energy_uj"]
            assert rows[0]["scenario"] == "metrics-store"
            assert rows[0]["sink"] == "energy"
            assert store.node_metrics_count() == (
                len(report.node_series["energy.energy_uj"])
                + len(report.node_series["hotspot.load"])
            )
            assert store.node_metrics_count(scenario="other") == 0

    def test_overwrite_replaces_node_metrics(self, tmp_path):
        spec = self._instrumented_spec()
        report = execute_run(spec).report
        with ResultStore(tmp_path / "results.sqlite") as store:
            store.put(spec, report)
            before = store.node_metrics_count()
            store.put(spec, report)  # INSERT OR REPLACE path
            assert store.node_metrics_count() == before

    def test_sweep_persists_node_metrics_via_streaming_writer(self, tmp_path):
        scenario = ScenarioSpec(
            name="metrics-sweep", query="query1", algorithms=("naive", "base"),
            runs=1, cycles=3, sinks=("energy",),
        )
        with SweepRunner(store=str(tmp_path / "results.sqlite")) as runner:
            sweep = runner.run(scenario, SMOKE)
            assert sweep.executed == 2
        with ResultStore(tmp_path / "results.sqlite") as store:
            assert store.node_metrics_count(scenario="metrics-sweep") > 0
