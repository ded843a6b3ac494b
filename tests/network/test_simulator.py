"""Tests for the sampling-cycle network simulator."""

import pytest

from repro.network import (
    LinkModel,
    MessageKind,
    NetworkSimulator,
    SensorNode,
    Topology,
    TrafficAccounting,
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


class TestInstantTransfer:
    def test_transfer_charges_each_hop(self):
        sim = NetworkSimulator(chain_topology())
        ok = sim.transfer([0, 1, 2, 3], size_bytes=10, kind=MessageKind.DATA)
        assert ok
        assert sim.stats.total() == 30.0  # three transmissions of 10 bytes
        assert sim.stats.transmitted[0] == 10.0
        assert sim.stats.transmitted[3] == 0.0
        assert sim.stats.received[3] == 10.0

    def test_single_node_path_costs_nothing(self):
        sim = NetworkSimulator(chain_topology())
        assert sim.transfer([2], size_bytes=10)
        assert sim.stats.total() == 0.0

    def test_empty_path_rejected(self):
        sim = NetworkSimulator(chain_topology())
        with pytest.raises(ValueError):
            sim.transfer([], size_bytes=10)

    def test_transfer_through_dead_node_fails(self):
        topo = chain_topology()
        topo.nodes[2].fail()
        sim = NetworkSimulator(topo)
        ok = sim.transfer([0, 1, 2, 3], size_bytes=10)
        assert not ok
        assert sim.stats.messages_dropped == 1

    def test_dead_hop_charges_only_the_hops_before_it(self):
        topo = chain_topology()
        topo.nodes[3].fail()
        sim = NetworkSimulator(topo)
        assert not sim.transfer([0, 1, 2, 3, 4], size_bytes=10)
        assert [sim.stats.transmitted[n] for n in range(5)] == [10.0, 10.0, 0.0, 0.0, 0.0]
        assert sim.stats.received[2] == 10.0
        assert sim.stats.received[3] == 0.0
        assert sim.stats.messages_dropped == 1

    def test_forwarding_is_not_bounded_per_cycle(self):
        """Queue overflow is not modelled: any number of messages crosses
        an intermediate node within one sampling cycle."""
        sim = NetworkSimulator(chain_topology())
        assert all(sim.transfer([0, 1, 2], size_bytes=10) for _ in range(20))
        assert sim.stats.transmitted[1] == 200.0
        assert sim.stats.messages_dropped == 0

    def test_message_accounting_mode(self):
        sim = NetworkSimulator(
            chain_topology(), accounting=TrafficAccounting.MESSAGES
        )
        sim.transfer([0, 1, 2], size_bytes=999)
        assert sim.stats.total() == 2.0

    def test_lossy_transfer_drops(self):
        links = LinkModel(loss_probability=0.9, max_retransmissions=0, seed=1)
        sim = NetworkSimulator(chain_topology(), link_model=links)
        outcomes = [sim.transfer([0, 1, 2, 3, 4], size_bytes=10) for _ in range(50)]
        assert not all(outcomes)
        assert sim.stats.messages_dropped > 0


class TestBroadcastAndFlood:
    def test_broadcast_charges_once(self):
        sim = NetworkSimulator(chain_topology())
        heard = sim.broadcast(1, size_bytes=8)
        assert heard == [0, 2]
        assert sim.stats.transmitted[1] == 8.0

    def test_broadcast_from_dead_node(self):
        topo = chain_topology()
        topo.nodes[1].fail()
        sim = NetworkSimulator(topo)
        assert sim.broadcast(1, size_bytes=8) == []


class TestClock:
    def test_advance_sampling_counts_cycles(self):
        sim = NetworkSimulator(chain_topology())
        assert sim.sampling_cycle == 0
        for _ in range(3):
            sim.advance_sampling_cycle()
        assert sim.sampling_cycle == 3
