"""Tests for the event-sink metrics pipeline and TrafficStats-as-sink."""

import pytest

from repro.metrics import (
    EnergySink,
    HotspotSink,
    MetricsPipeline,
    MetricsSink,
    available_sink_presets,
    build_sinks,
    summary_prefixes,
    validate_sink_entries,
)
from repro.network import (
    CSRAdjacency,
    MessageKind,
    NetworkSimulator,
    SensorNode,
    Topology,
    TrafficStats,
)


def chain_topology(length=5):
    nodes = {i: SensorNode(node_id=i, position=(float(i), 0.0)) for i in range(length)}
    adjacency = {i: set() for i in range(length)}
    for i in range(length - 1):
        adjacency[i].add(i + 1)
        adjacency[i + 1].add(i)
    return Topology(nodes=nodes, adjacency=CSRAdjacency.from_mapping(adjacency, length),
                    base_id=0, radio_range=1.5)


class RecordingSink(MetricsSink):
    """A sink that records every event it receives."""

    name = "recording"

    def __init__(self):
        self.events = []

    def charge_path(self, path, size_bytes, kind, attempts=None, num_hops=None):
        self.events.append(("path", tuple(path), size_bytes))

    def charge_paths_batch(self, batch):
        self.events.append(("batch", batch.senders.size, batch.drops))

    def charge_drop(self):
        self.events.append(("drop",))

    def on_sampling_cycle(self, cycle):
        self.events.append(("cycle", cycle))


class CycleSink(MetricsSink):
    """A sink that listens to sampling-cycle ticks only."""

    def on_sampling_cycle(self, cycle):
        pass


class TestDispatch:
    def test_single_listener_is_the_bound_method(self):
        """The default config dispatches with zero added indirection."""
        stats = TrafficStats()
        pipeline = MetricsPipeline([stats])
        assert pipeline.charge_path.__self__ is stats
        assert pipeline.charge_transmission.__self__ is stats

    def test_uninterested_sinks_are_skipped(self):
        """A sink only receives events its class implements."""
        stats = TrafficStats()
        ticks = CycleSink()
        pipeline = MetricsPipeline([stats, ticks])
        # the tick sink inherits the charge no-ops, so stats stays the only
        # charge listener and keeps the direct-bound dispatch
        assert pipeline.charge_path.__self__ is stats
        assert pipeline.on_sampling_cycle.__self__ is ticks

    def test_fanout_reaches_every_listener(self):
        stats = TrafficStats()
        recorder = RecordingSink()
        pipeline = MetricsPipeline([stats, recorder])
        pipeline.charge_path([0, 1, 2], 10, MessageKind.DATA)
        pipeline.charge_drop()
        assert stats.total() == 20.0
        assert stats.messages_dropped == 1
        assert recorder.events == [("path", (0, 1, 2), 10), ("drop",)]

    def test_no_listener_event_is_a_noop(self):
        pipeline = MetricsPipeline([TrafficStats()])
        pipeline.on_sampling_cycle(3)  # nothing listens; must not raise

    def test_sinkless_pipeline_dispatches_to_noops(self):
        pipeline = MetricsPipeline()
        pipeline.charge_drop()
        pipeline.charge_path([0, 1], 10, MessageKind.DATA)
        pipeline.on_sampling_cycle(2)
        assert pipeline.summaries() == {}
        assert pipeline.node_series() == {}

    def test_reset_resets_every_sink(self):
        stats = TrafficStats()
        pipeline = MetricsPipeline([stats, RecordingSink()])
        pipeline.charge_path([0, 1], 10, MessageKind.DATA)
        pipeline.reset()
        assert stats.total() == 0.0
        assert stats.messages_sent == 0


class TestSimulatorIntegration:
    def _drive(self, sim):
        sim.transfer([0, 1, 2, 3], 10, MessageKind.DATA)
        sim.transfer([2, 1], 7, MessageKind.RESULT)
        sim.broadcast(1, 8, MessageKind.CONTROL)
        for node in sim.topology.node_ids:
            sim.broadcast(node, 5, MessageKind.CONTROL)
        sim.advance_sampling_cycle()
        sim.transfer([3, 2, 1, 0], 12, MessageKind.DATA)

    def test_extra_sinks_never_change_traffic(self):
        """Observer sinks leave TrafficStats bit-identical (pipeline-off
        equivalence at the simulator level)."""
        plain = NetworkSimulator(chain_topology())
        instrumented = NetworkSimulator(
            chain_topology(),
            sinks=[EnergySink(), HotspotSink()],
        )
        self._drive(plain)
        self._drive(instrumented)
        assert plain.stats.transmitted == instrumented.stats.transmitted
        assert plain.stats.received == instrumented.stats.received
        assert plain.stats.by_kind == instrumented.stats.by_kind
        assert plain.stats.messages_sent == instrumented.stats.messages_sent
        assert plain.stats.snapshot() == instrumented.stats.snapshot()

    def test_traffic_stats_as_sink_reset_parity(self):
        sim = NetworkSimulator(chain_topology(), sinks=[EnergySink()])
        sim.transfer([0, 1, 2], 10, MessageKind.DATA)
        sim.pipeline.reset()
        assert sim.stats.total() == 0.0
        assert sim.stats.messages_sent == 0
        snapshot = sim.stats.snapshot()
        assert snapshot["total"] == 0.0
        assert snapshot["by_kind"] == {}

    def test_add_sink_after_construction(self):
        sim = NetworkSimulator(chain_topology())
        recorder = sim.add_sink(RecordingSink())
        sim.transfer([0, 1], 10, MessageKind.DATA)
        assert recorder.events == [("path", (0, 1), 10)]

    def test_pipeline_direct_add_sink_observes_events(self):
        """Sinks registered on the pipeline itself (bypassing the simulator
        wrapper) still see every subsequent charge."""
        sim = NetworkSimulator(chain_topology())
        recorder = RecordingSink()
        sim.pipeline.add_sink(recorder)
        sim.transfer([0, 1, 2], 10, MessageKind.DATA)
        assert recorder.events == [("path", (0, 1, 2), 10)]

    def test_summaries_and_series_cover_reporting_sinks_only(self):
        sim = NetworkSimulator(chain_topology(), sinks=[EnergySink()])
        sim.transfer([0, 1], 10, MessageKind.DATA)
        summaries = sim.pipeline.summaries()
        assert "energy_total_uj" in summaries
        # the built-in traffic sink is non-reporting
        assert all(key.startswith("energy_") for key in summaries)
        series = sim.pipeline.node_series()
        assert set(series) == {"energy.energy_uj"}


class TestPresets:
    def test_build_sinks_by_name_and_mapping(self):
        sinks = build_sinks(["energy", {"sink": "hotspots", "top_k": 3}])
        assert [type(sink).__name__ for sink in sinks] == [
            "EnergySink", "HotspotSink"]
        assert sinks[1].top_k == 3

    def test_all_group_expands(self):
        sinks = build_sinks(["all"])
        assert [type(sink).__name__ for sink in sinks] == [
            "EnergySink", "HotspotSink"]

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError, match="unknown sink preset"):
            build_sinks(["voltage"])
        # no charge point emits deliveries, so there is no latency preset
        with pytest.raises(KeyError, match="unknown sink preset 'latency'"):
            build_sinks(["latency"])
        with pytest.raises(ValueError, match="'sink' key"):
            validate_sink_entries([{"capacity_uj": 1.0}])

    def test_available_presets(self):
        assert available_sink_presets() == ["all", "energy", "hotspots"]

    def test_summary_prefixes(self):
        assert summary_prefixes(["all"]) == ("energy_", "hotspot_")
        assert summary_prefixes([{"sink": "energy", "capacity_uj": 1.0}]) == (
            "energy_",)


class TestBoundNodeSeries:
    """Memory-bounded per-node series for massive-topology reports."""

    def test_keeps_heaviest_entries_sorted_by_id(self):
        from repro.metrics.pipeline import bound_node_series

        values = {0: 1.0, 1: 9.0, 2: 3.0, 3: 9.0, 4: 0.5}
        bounded, summary = bound_node_series(values, 3)
        # top-3 by value, ties toward the lower id, re-sorted by node id
        assert bounded == {1: 9.0, 2: 3.0, 3: 9.0}
        assert list(bounded) == [1, 2, 3]
        assert summary == {
            "nodes": 5.0, "kept": 3.0, "sum": 22.5, "mean": 4.5,
            "max": 9.0, "min": 0.5,
        }

    def test_fitting_series_pass_through_unchanged(self):
        from repro.metrics.pipeline import bound_node_series

        values = {0: 1.0, 1: 2.0}
        bounded, summary = bound_node_series(values, 2)
        assert bounded == values and summary is None
        with pytest.raises(ValueError):
            bound_node_series(values, -1)

    def test_executor_caps_series_and_summarizes(self):
        from repro.core.cost_model import Selectivities
        from repro.engine.execution import run_single
        from repro.engine.workload import build_query, build_topology, memoized_workload

        key = ("moderate", 0, 60)
        topology = build_topology(None, preset="moderate", seed=0, num_nodes=60)
        query = build_query("query1", (), topology=topology, topology_key=key)
        sel = Selectivities(0.5, 0.5, 0.2)
        source = memoized_workload(key, topology, ("query1", ()), query, sel, seed=1)

        def run(cap):
            return run_single(
                query, topology, source, "base", sel, cycles=5,
                sinks=build_sinks(["energy"]), node_series_cap=cap,
            ).report

        full, capped = run(None), run(10)
        assert full.total_traffic == capped.total_traffic  # reporting knob only
        for name, series in full.node_series.items():
            assert len(capped.node_series[name]) == 10
            assert set(capped.node_series[name]) <= set(series)
            assert f"{name}.nodes" in capped.extra
            assert f"{name}.nodes" not in full.extra

    def test_spec_cap_is_hash_neutral_when_unset(self):
        from dataclasses import replace

        from repro.engine.spec import ScenarioSpec, resolve_scale

        spec = ScenarioSpec(
            name="cap", grid={"node_series_cap": [None, 32]},
        ).expand(resolve_scale("smoke"))[0]
        assert replace(spec, node_series_cap=None).run_key() == \
            replace(spec, node_series_cap=None).run_key()
        assert replace(spec, node_series_cap=32).run_key() != \
            replace(spec, node_series_cap=None).run_key()
        # the unset default round-trips out of the spec hash entirely
        assert "node_series_cap" not in ScenarioSpec(name="plain").to_dict()
