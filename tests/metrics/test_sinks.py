"""Hand-computed arithmetic for the energy, hotspot and latency sinks."""

import pytest

from repro.metrics import EnergyModel, EnergySink, HotspotSink, LatencySink
from repro.metrics.latency import StreamingQuantile
from repro.network import (
    MessageKind,
    NetworkSimulator,
    SensorNode,
    Topology,
)
from tests.network.topology_oracle import csr_from_mapping


def chain_topology(length=5):
    nodes = {i: SensorNode(node_id=i, position=(float(i), 0.0)) for i in range(length)}
    adjacency = {i: set() for i in range(length)}
    for i in range(length - 1):
        adjacency[i].add(i + 1)
        adjacency[i + 1].add(i)
    return Topology(nodes=nodes, adjacency=csr_from_mapping(adjacency, length),
                    base_id=0, radio_range=1.5)


class TestEnergyArithmetic:
    """Every expectation below is computed by hand from the model."""

    def _sink(self, **kwargs):
        defaults = dict(tx_uj_per_byte=2.0, rx_uj_per_byte=1.0,
                        idle_uj_per_cycle=0.5)
        defaults.update(kwargs)
        return EnergySink(EnergyModel(**defaults))

    def test_path_charge(self):
        sink = self._sink()
        sink.charge_path([0, 1, 2], 10, MessageKind.DATA)
        # node 0: tx 10B * 2 = 20; node 1: rx 10 + tx 20 = 30; node 2: rx 10
        assert sink.energy[0] == 20.0
        assert sink.energy[1] == 30.0
        assert sink.energy[2] == 10.0

    def test_path_charge_with_attempts(self):
        sink = self._sink()
        sink.charge_path([0, 1, 2], 10, MessageKind.DATA, attempts=[3, 1])
        # node 0 transmits 3 times (60), node 1 receives once (10) + tx once (20)
        assert sink.energy[0] == 60.0
        assert sink.energy[1] == 30.0
        assert sink.energy[2] == 10.0

    def test_truncated_path_charge(self):
        sink = self._sink()
        sink.charge_path([0, 1, 2, 3], 10, MessageKind.DATA,
                         attempts=[1, 1, 1], num_hops=2)
        assert sink.energy[0] == 20.0
        assert sink.energy[1] == 30.0
        assert sink.energy[2] == 10.0
        assert sink.energy.get(3, 0.0) == 0.0

    def test_transmission_and_broadcast(self):
        sink = self._sink()
        sink.charge_transmission(1, 10, MessageKind.DATA, attempts=2, receiver=2)
        assert sink.energy[1] == 40.0  # two transmissions
        assert sink.energy[2] == 10.0  # one heard copy
        sink.charge_broadcast(3, 5, MessageKind.CONTROL, receivers=[2, 4])
        assert sink.energy[3] == 10.0
        assert sink.energy[2] == 15.0
        assert sink.energy[4] == 5.0

    def test_idle_cost_skips_base_station(self):
        sim = NetworkSimulator(chain_topology(length=3))
        sink = sim.add_sink(self._sink())
        sim.advance_sampling_cycle()
        sim.advance_sampling_cycle()
        # base (node 0) is mains powered; nodes 1 and 2 idle twice
        assert sink.energy[0] == 0.0
        assert sink.energy[1] == 1.0
        assert sink.energy[2] == 1.0

    def test_simulator_transfer_matches_hand_computation(self):
        sim = NetworkSimulator(chain_topology())
        sink = sim.add_sink(self._sink(idle_uj_per_cycle=0.0))
        sim.transfer([0, 1, 2, 3], 10, MessageKind.DATA)
        assert sink.energy[0] == 20.0
        assert sink.energy[1] == 30.0
        assert sink.energy[2] == 30.0
        assert sink.energy[3] == 10.0
        summary = sink.summary()
        # non-base total: 30 + 30 + 10 (+ node 4 with 0)
        assert summary["energy_total_uj"] == 70.0
        assert summary["energy_max_uj"] == 30.0
        assert summary["energy_dead_nodes"] == 0.0
        assert summary["energy_lifetime_cycles"] == -1.0

    def test_lifetime_first_death(self):
        sim = NetworkSimulator(chain_topology(length=3))
        sink = sim.add_sink(self._sink(idle_uj_per_cycle=0.0, capacity_uj=50.0))
        sim.transfer([1, 2], 10, MessageKind.DATA)   # node 1 at 20 uJ
        sim.advance_sampling_cycle()
        assert sink.first_death_node is None
        sim.transfer([1, 2], 20, MessageKind.DATA)   # node 1 at 60 uJ >= 50
        sim.advance_sampling_cycle()
        assert sink.first_death_node == 1
        assert sink.first_death_cycle == 2
        summary = sink.summary()
        assert summary["energy_lifetime_cycles"] == 2.0
        assert summary["energy_dead_nodes"] == 1.0

    def test_dead_nodes_stop_idling(self):
        sim = NetworkSimulator(chain_topology(length=3))
        sink = sim.add_sink(self._sink(idle_uj_per_cycle=1.0, capacity_uj=10.0))
        sim.transfer([1, 2], 10, MessageKind.DATA)   # node 1 at 20 >= 10
        sim.advance_sampling_cycle()                  # death detected, +idle first
        spent = sink.energy[1]
        sim.advance_sampling_cycle()
        sim.advance_sampling_cycle()
        assert sink.energy[1] == spent  # no further idle draw
        assert sink.energy[2] > 10.0    # alive node keeps idling

    def test_idle_skips_topology_dead_nodes(self):
        """Failure-injected nodes have no radio: no idle draw, no bogus
        battery death."""
        topo = chain_topology(length=3)
        sim = NetworkSimulator(topo)
        sink = sim.add_sink(self._sink(idle_uj_per_cycle=1.0, capacity_uj=3.0))
        topo.nodes[2].fail()
        for _ in range(5):
            sim.advance_sampling_cycle()
        assert sink.energy[2] == 0.0
        assert sink.first_death_node == 1  # the alive node idled past 3 uJ
        assert 2 not in sink._dead

    def test_base_station_never_dies(self):
        sim = NetworkSimulator(chain_topology(length=3))
        sink = sim.add_sink(self._sink(idle_uj_per_cycle=0.0, capacity_uj=5.0))
        sim.transfer([1, 0], 10, MessageKind.DATA)  # base receives 10 > 5
        sim.advance_sampling_cycle()
        assert sink.first_death_node == 1           # the transmitter died
        assert 0 not in sink._dead

    def test_model_or_overrides_not_both(self):
        with pytest.raises(ValueError):
            EnergySink(EnergyModel(), capacity_uj=1.0)

    def test_node_series(self):
        sink = self._sink()
        sink.charge_path([0, 1], 10, MessageKind.DATA)
        assert sink.node_series() == {"energy_uj": {0: 20.0, 1: 10.0}}


class TestHotspotSink:
    def test_load_matches_traffic_stats_at_node(self):
        sim = NetworkSimulator(chain_topology())
        sink = sim.add_sink(HotspotSink())
        sim.transfer([0, 1, 2, 3], 10, MessageKind.DATA)
        sim.transfer([4, 3, 2], 7, MessageKind.RESULT)
        sim.broadcast(2, 8, MessageKind.CONTROL)
        stats = sim.stats
        for node_id in sim.topology.node_ids:
            assert sink.load[node_id] == stats.at_node(node_id)
        assert sink.max_load() == stats.max_node_load()

    def test_top_matches_top_loaded_nodes(self):
        sim = NetworkSimulator(chain_topology())
        sink = sim.add_sink(HotspotSink())
        sim.transfer([0, 1, 2, 3, 4], 11, MessageKind.DATA)
        sim.transfer([2, 3], 5, MessageKind.DATA)
        assert sink.top(3) == sim.stats.top_loaded_nodes(k=3)

    def test_gini_balanced_and_skewed(self):
        balanced = HotspotSink()
        for node in range(1, 5):
            balanced.charge_transmission(node, 10, MessageKind.DATA)
        assert balanced.gini() == pytest.approx(0.0)
        skewed = HotspotSink()
        skewed.charge_transmission(1, 1000, MessageKind.DATA)
        for node in range(2, 10):
            skewed.charge_transmission(node, 1, MessageKind.DATA)
        assert 0.8 < skewed.gini() < 1.0

    def test_gini_excludes_base_station(self):
        sim = NetworkSimulator(chain_topology(length=3))
        sink = sim.add_sink(HotspotSink())
        # all traffic lands on the base (node 0): the remaining nodes carry
        # equal load, so the non-base distribution stays balanced
        sim.transfer([1, 0], 10, MessageKind.DATA)
        sim.transfer([2, 1, 0], 10, MessageKind.DATA)
        assert sink.gini() < 0.4
        summary = sink.summary()
        assert summary["hotspot_max_load"] == sink.max_load()

    def test_message_accounting_mode(self):
        from repro.network import TrafficAccounting

        sim = NetworkSimulator(chain_topology(),
                               accounting=TrafficAccounting.MESSAGES)
        sink = sim.add_sink(HotspotSink())
        sim.transfer([0, 1, 2], 999, MessageKind.DATA)
        assert sink.load[1] == 2.0  # one sent + one received message

    def test_explicit_units_survive_attach(self):
        """A constructor-supplied bytes_per_unit wins over the simulator's
        accounting mode."""
        sim = NetworkSimulator(chain_topology())  # bytes accounting
        sink = sim.add_sink(HotspotSink(bytes_per_unit=False))
        sim.transfer([0, 1, 2], 999, MessageKind.DATA)
        assert sink.load[1] == 2.0  # still counted per message


class TestLatencySink:
    def test_mean_matches_listwise_average(self):
        observed = [(MessageKind.DATA, 2), (MessageKind.RESULT, 1),
                    (MessageKind.DATA, 4)]
        sink = LatencySink()
        for kind, latency in observed:
            sink.on_delivery(kind, latency)
        expected = [latency for _, latency in observed]
        assert sink.mean() == pytest.approx(sum(expected) / len(expected))
        data = [latency for kind, latency in observed if kind is MessageKind.DATA]
        assert sink.mean([MessageKind.DATA]) == pytest.approx(
            sum(data) / len(data))
        assert sink.mean([MessageKind.CONTROL]) == 0.0

    def test_summary_keys(self):
        sink = LatencySink()
        for latency in (1, 2, 3, 4, 100):
            sink.on_delivery(MessageKind.DATA, latency)
        summary = sink.summary()
        assert summary["latency_count"] == 5.0
        assert summary["latency_mean"] == pytest.approx(22.0)
        assert summary["latency_max"] == 100.0
        assert summary["latency_p50"] == pytest.approx(3.0)

    def test_streaming_quantile_accuracy(self):
        median = StreamingQuantile(0.5)
        p95 = StreamingQuantile(0.95)
        # deterministic shuffle of 1..1000
        values = [(i * 617) % 1000 + 1 for i in range(1000)]
        assert sorted(set(values)) == list(range(1, 1001))
        for value in values:
            median.add(value)
            p95.add(value)
        assert median.value() == pytest.approx(500, rel=0.05)
        assert p95.value() == pytest.approx(950, rel=0.05)

    def test_quantile_exact_under_five_samples(self):
        quantile = StreamingQuantile(0.5)
        assert quantile.value() == 0.0
        for value in (9, 1, 5):
            quantile.add(value)
        assert quantile.value() == 5.0

    def test_rejects_degenerate_quantile(self):
        with pytest.raises(ValueError):
            StreamingQuantile(1.0)
