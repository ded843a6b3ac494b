"""Tests for the batch-cycle transport kernel (repro.network.batch).

The kernel's contract is *bit-identity* with the per-tuple reference path:
same delivery verdicts (same seeded RNG stream) and same accounting, with
all charges emitted as one array-level pipeline event.  Every test here
compares a batched execution against a freshly-seeded per-tuple run.
"""

import numpy as np
import pytest

from repro.metrics import EnergySink, HotspotSink
from repro.metrics.pipeline import MetricsPipeline, MetricsSink
from repro.network.batch import CycleBatcher, _segment_outcomes
from repro.network.links import lossy_links, perfect_links
from repro.network.message import MessageKind
from repro.network.simulator import NetworkSimulator
from repro.network.topology import grid_topology


def _sim(loss=0.0, seed=0, sinks=None):
    topology = grid_topology(num_nodes=25)
    links = perfect_links() if loss == 0.0 else lossy_links(loss, seed=seed)
    return NetworkSimulator(topology, link_model=links, sinks=sinks)


def _paths(simulator, count=None):
    """Every node's path to the base (the Naive shipping pattern)."""
    topology = simulator.topology
    paths = [
        topology.shortest_path(node_id, topology.base_id)
        for node_id in topology.node_ids
        if node_id != topology.base_id
    ]
    return paths[:count] if count is not None else paths


def _paths_with_single_nodes(simulator):
    """Base paths with single-node paths interleaved: they deliver without
    a charge or a link-model draw, wherever they sit in the list."""
    base = simulator.topology.base_id
    paths = []
    for index, path in enumerate(_paths(simulator)):
        if index % 4 == 0:
            paths.append([base])
        paths.append(path)
    return paths


def _traffic_view(simulator):
    stats = simulator.stats
    return (
        dict(stats.transmitted),
        dict(stats.received),
        dict(stats.by_kind),
        stats.messages_sent,
        stats.messages_dropped,
    )


class TestSegmentOutcomes:
    def test_all_delivered(self):
        lens = np.array([2, 3, 1], dtype=np.int64)
        delivered, charged, starts = _segment_outcomes(
            lens, np.ones(6, dtype=bool)
        )
        assert delivered.all()
        assert np.array_equal(charged, lens)
        assert np.array_equal(starts, [0, 2, 5])

    def test_first_failure_truncates_charge(self):
        lens = np.array([3, 3], dtype=np.int64)
        hops = np.array([True, False, True, False, False, True])
        delivered, charged, _ = _segment_outcomes(lens, hops)
        assert not delivered.any()
        # charged up to and including the first failed hop
        assert np.array_equal(charged, [2, 1])

    def test_zero_length_segments_are_delivered(self):
        lens = np.array([0, 2, 0], dtype=np.int64)
        delivered, charged, _ = _segment_outcomes(
            lens, np.array([True, False])
        )
        assert delivered.tolist() == [True, False, True]
        assert charged.tolist() == [0, 2, 0]


class TestCycleBatcher:
    @pytest.mark.parametrize("loss", [0.0, 0.3])
    def test_ship_matches_reference_transfer(self, loss):
        batched = _sim(loss=loss, seed=5)
        reference = _sim(loss=loss, seed=5)
        batcher = CycleBatcher(batched)
        paths = _paths(batched)
        verdicts = [batcher.ship(p, 12, MessageKind.DATA) for p in paths]
        batcher.flush()
        expected = [
            reference.transfer(p, 12, MessageKind.DATA) for p in paths
        ]
        assert verdicts == expected
        assert _traffic_view(batched) == _traffic_view(reference)

    @pytest.mark.parametrize("loss, paths_of, flushes", [
        pytest.param(0.0, _paths, 1, id="0.0"),
        pytest.param(0.3, _paths, 1, id="0.3"),
        pytest.param(0.0, _paths_with_single_nodes, 1,
                     id="0.0-single-node-paths"),
        pytest.param(0.25, _paths_with_single_nodes, 1,
                     id="0.25-single-node-paths"),
        pytest.param(0.3, _paths, 5, id="0.3-five-flushes"),
    ])
    def test_ship_many_matches_per_path_ship(self, loss, paths_of, flushes):
        """``ship_many`` equals per-path ``ship`` and looped ``transfer``:
        same verdicts, same seeded stream, same charges, flush after flush
        on one batcher."""
        many = _sim(loss=loss, seed=9)
        single = _sim(loss=loss, seed=9)
        reference = _sim(loss=loss, seed=9)
        paths = paths_of(many)
        batcher_many = CycleBatcher(many)
        batcher_single = CycleBatcher(single)
        for _ in range(flushes):
            out = batcher_many.ship_many(paths, 20, MessageKind.DATA)
            batcher_many.flush()
            expected = [
                batcher_single.ship(p, 20, MessageKind.DATA) for p in paths
            ]
            batcher_single.flush()
            looped = [
                reference.transfer(p, 20, MessageKind.DATA) for p in paths
            ]
            assert out.tolist() == expected == looped
        assert _traffic_view(many) == _traffic_view(single)
        assert _traffic_view(many) == _traffic_view(reference)

    def test_mixed_kinds_and_sizes_in_one_flush(self):
        batched = _sim(loss=0.2, seed=13)
        reference = _sim(loss=0.2, seed=13)
        paths = _paths(batched, count=8)
        batcher = CycleBatcher(batched)
        plan = [
            (paths[0], 24, MessageKind.DATA),
            (paths[1], 6, MessageKind.CONTROL),
            (paths[2], 24, MessageKind.DATA),
            (paths[3], 40, MessageKind.RESULT),
            (paths[4], 6, MessageKind.CONTROL),
        ]
        verdicts = [batcher.ship(p, s, k) for p, s, k in plan]
        batcher.flush()
        expected = [reference.transfer(p, s, k) for p, s, k in plan]
        assert verdicts == expected
        assert _traffic_view(batched) == _traffic_view(reference)

    def test_flush_emits_one_pipeline_event(self):
        events = []

        class Counter(MetricsSink):
            name = "counter"

            def charge_paths_batch(self, batch):
                events.append(batch)

        simulator = _sim(loss=0.0, sinks=[Counter()])
        batcher = CycleBatcher(simulator)
        for path in _paths(simulator):
            batcher.ship(path, 10, MessageKind.DATA)
        batcher.flush()
        assert len(events) == 1
        batcher.flush()  # empty: nothing further
        assert len(events) == 1


class TestShipEdges:
    """Batched multicast-edge shipping (the innet tree-traffic classes)."""

    @staticmethod
    def _edges(simulator, count=None):
        """Tree-shaped traffic: every path decomposed into its 1-hop edges."""
        edges = []
        for path in _paths(simulator, count=count):
            edges.extend(zip(path, path[1:]))
        senders = np.array([s for s, _ in edges], dtype=np.int64)
        receivers = np.array([r for _, r in edges], dtype=np.int64)
        return senders, receivers

    @pytest.mark.parametrize("loss", [0.0, 0.3])
    def test_matches_per_edge_reference(self, loss):
        batched = _sim(loss=loss, seed=11)
        reference = _sim(loss=loss, seed=11)
        senders, receivers = self._edges(batched)
        batcher = CycleBatcher(batched)
        out = batcher.ship_edges(senders, receivers, 14, MessageKind.DATA)
        batcher.flush()
        expected = [
            reference.transfer((int(s), int(r)), 14, MessageKind.DATA)
            for s, r in zip(senders, receivers)
        ]
        assert out.tolist() == expected
        assert _traffic_view(batched) == _traffic_view(reference)

    def test_lossy_interleaved_with_scalar_ships_keeps_rng_stream(self):
        """Verdict draws happen at ship time in call order, so mixing edge
        blocks with scalar path ships must consume the seeded stream exactly
        like the equivalent per-tuple transfer sequence."""
        batched = _sim(loss=0.3, seed=17)
        reference = _sim(loss=0.3, seed=17)
        paths = _paths(batched, count=6)
        senders, receivers = self._edges(batched, count=4)
        batcher = CycleBatcher(batched)
        verdicts = [batcher.ship(paths[0], 8, MessageKind.DATA)]
        edge_out = batcher.ship_edges(senders, receivers, 8, MessageKind.DATA)
        verdicts.append(batcher.ship(paths[5], 8, MessageKind.RESULT))
        batcher.flush()
        expected = [reference.transfer(paths[0], 8, MessageKind.DATA)]
        edge_expected = [
            reference.transfer((int(s), int(r)), 8, MessageKind.DATA)
            for s, r in zip(senders, receivers)
        ]
        expected.append(reference.transfer(paths[5], 8, MessageKind.RESULT))
        assert verdicts == expected
        assert edge_out.tolist() == edge_expected
        assert _traffic_view(batched) == _traffic_view(reference)

    def test_empty_edge_call_ships_nothing(self):
        simulator = _sim(loss=0.4, seed=6)
        batcher = CycleBatcher(simulator)
        out = batcher.ship_edges(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            10, MessageKind.DATA,
        )
        batcher.flush()
        assert out.size == 0
        assert simulator.stats.total() == 0.0
        # and no randomness was consumed
        fresh = lossy_links(0.4, seed=6)
        assert simulator.links.attempt_hop() == fresh.attempt_hop()


class TestShiplessCycle:
    """A cycle that ships nothing must emit no pipeline event at all."""

    class Counter(MetricsSink):
        name = "counter"

        def __init__(self):
            self.events = []

        def charge_paths_batch(self, batch):
            self.events.append(batch)

    @pytest.mark.parametrize("loss", [0.0, 0.3])
    def test_zero_shipment_flush_emits_no_event(self, loss):
        """Regression: all-zero-hop ship_many / empty ship_edges calls must
        not leave an empty group behind -- a shipless cycle flushes to
        nothing, exactly like the per-tuple reference which never calls the
        pipeline."""
        counter = self.Counter()
        simulator = _sim(loss=loss, seed=8, sinks=[counter])
        base = simulator.topology.base_id
        batcher = CycleBatcher(simulator)
        out = batcher.ship_many([[base], []], 10, MessageKind.DATA)
        batcher.ship_edges(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            10, MessageKind.DATA,
        )
        batcher.flush()
        assert out.tolist() == [True, True]
        assert counter.events == []
        assert simulator.stats.total() == 0.0
        if loss:
            # zero-hop segments consume no randomness either
            fresh = lossy_links(loss, seed=8)
            assert simulator.links.attempt_hop() == fresh.attempt_hop()


class TestOneChargeEvent:
    """The batch event is the kernel's only charge: there is no per-path
    replay, so a sink must take it to see kernel charges at all."""

    @pytest.mark.parametrize("event", ["charge_path", "charge_drop"])
    def test_add_sink_rejects_a_per_path_only_sink(self, event):
        per_path_only = type("PerPathOnly", (MetricsSink,), {
            event: lambda self, *args, **kwargs: None,
        })
        with pytest.raises(TypeError, match="PerPathOnly"):
            MetricsPipeline([per_path_only()])
        simulator = _sim()
        with pytest.raises(TypeError, match="charge_paths_batch"):
            simulator.add_sink(per_path_only())
        assert simulator.pipeline.sinks == [simulator.stats]

    @pytest.mark.parametrize("loss", [0.0, 0.35])
    def test_batched_ships_charge_what_transfer_charges(self, loss):
        """Paths and multicast edges shipped through the batcher charge the
        traffic stats and the observational sinks exactly as the per-path
        ``transfer`` calls they stand for."""
        batched = _sim(loss=loss, seed=21, sinks=[EnergySink(), HotspotSink()])
        reference = _sim(loss=loss, seed=21,
                         sinks=[EnergySink(), HotspotSink()])
        paths = _paths(batched)
        senders, receivers = TestShipEdges._edges(batched, count=8)
        batcher = CycleBatcher(batched)
        verdicts = [batcher.ship(path, 18, MessageKind.DATA)
                    for path in paths[:12]]
        verdicts += batcher.ship_edges(senders, receivers, 18,
                                       MessageKind.DATA).tolist()
        verdicts += [batcher.ship(path, 9, MessageKind.RESULT)
                     for path in paths[12:]]
        batcher.flush()
        expected = [reference.transfer(path, 18, MessageKind.DATA)
                    for path in paths[:12]]
        expected += [reference.transfer((int(s), int(r)), 18, MessageKind.DATA)
                     for s, r in zip(senders, receivers)]
        expected += [reference.transfer(path, 9, MessageKind.RESULT)
                     for path in paths[12:]]
        assert verdicts == expected
        assert _traffic_view(batched) == _traffic_view(reference)
        assert batched.pipeline.summaries() == reference.pipeline.summaries()
        assert batched.pipeline.node_series() == reference.pipeline.node_series()
