"""Tests for the cycle-driven network simulator."""

import pytest

from repro.network import (
    CSRAdjacency,
    LinkModel,
    Message,
    MessageKind,
    NetworkSimulator,
    SensorNode,
    Topology,
    TrafficAccounting,
)


def chain_topology(length=5):
    nodes = {i: SensorNode(node_id=i, position=(float(i), 0.0)) for i in range(length)}
    adjacency = {i: set() for i in range(length)}
    for i in range(length - 1):
        adjacency[i].add(i + 1)
        adjacency[i + 1].add(i)
    return Topology(nodes=nodes, adjacency=CSRAdjacency.from_mapping(adjacency, length),
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

    def test_transfer_delivery_callback(self):
        sim = NetworkSimulator(chain_topology())
        seen = []
        sim.register_handler(3, lambda node, msg: seen.append((node, msg.payload["v"])))
        sim.transfer([0, 1, 2, 3], size_bytes=10, deliver=True, payload={"v": 42})
        assert seen == [(3, 42)]

    def test_message_accounting_mode(self):
        sim = NetworkSimulator(
            chain_topology(), accounting=TrafficAccounting.MESSAGES
        )
        sim.transfer([0, 1, 2], size_bytes=999)
        assert sim.stats.total() == 2.0

    def test_queue_capacity_enforced_per_sampling_cycle(self):
        sim = NetworkSimulator(chain_topology(), queue_capacity=2)
        # Node 1 forwards (it is an intermediate hop); only 2 messages admitted.
        results = [sim.transfer([0, 1, 2], size_bytes=10) for _ in range(4)]
        assert results == [True, True, False, False]
        assert sim.stats.queue_drops == 2
        sim.advance_sampling_cycle()
        assert sim.transfer([0, 1, 2], size_bytes=10)

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

    def test_flood_reaches_every_node_once(self):
        sim = NetworkSimulator(chain_topology(length=6))
        transmissions = sim.flood(0, size_bytes=5)
        assert transmissions == 6
        assert sim.stats.total() == 30.0


class TestCycleAccurateTransport:
    def test_send_requires_path(self):
        sim = NetworkSimulator(chain_topology())
        with pytest.raises(ValueError):
            sim.send(Message(kind=MessageKind.DATA, source=0, destination=3, size_bytes=5))

    def test_message_advances_one_hop_per_cycle(self):
        sim = NetworkSimulator(chain_topology())
        delivered = []
        sim.register_handler(3, lambda node, msg: delivered.append(msg))
        msg = Message(
            kind=MessageKind.DATA, source=0, destination=3, size_bytes=5,
            path=[0, 1, 2, 3],
        )
        sim.send(msg)
        sim.run_transmission_cycles(2)
        assert not delivered
        sim.run_transmission_cycles(1)
        assert len(delivered) == 1
        assert delivered[0].latency_cycles == 3

    def test_run_until_idle(self):
        sim = NetworkSimulator(chain_topology())
        msg = Message(
            kind=MessageKind.DATA, source=0, destination=4, size_bytes=5,
            path=[0, 1, 2, 3, 4],
        )
        sim.send(msg)
        cycles = sim.run_until_idle()
        assert cycles == 4
        assert sim.in_flight_count == 0
        assert len(sim.delivered) == 1

    def test_self_delivery_is_immediate(self):
        sim = NetworkSimulator(chain_topology())
        seen = []
        sim.register_handler(2, lambda node, msg: seen.append(node))
        sim.send(Message(kind=MessageKind.DATA, source=2, destination=2, size_bytes=5, path=[2]))
        assert seen == [2]

    def test_failure_mid_route_drops_message(self):
        topo = chain_topology()
        sim = NetworkSimulator(topo)
        msg = Message(
            kind=MessageKind.DATA, source=0, destination=4, size_bytes=5,
            path=[0, 1, 2, 3, 4],
        )
        sim.send(msg)
        sim.run_transmission_cycles(1)
        topo.nodes[2].fail()
        sim.run_transmission_cycles(5)
        assert len(sim.dropped) == 1
        assert sim.dropped[0].dropped

    def test_default_handler_used_when_no_specific(self):
        sim = NetworkSimulator(chain_topology())
        seen = []
        sim.register_default_handler(lambda node, msg: seen.append(node))
        sim.send(Message(kind=MessageKind.DATA, source=0, destination=1, size_bytes=5, path=[0, 1]))
        sim.run_until_idle()
        assert seen == [1]

    def test_average_latency_filtering(self):
        sim = NetworkSimulator(chain_topology())
        sim.send(Message(kind=MessageKind.DATA, source=0, destination=2, size_bytes=5, path=[0, 1, 2]))
        sim.send(Message(kind=MessageKind.RESULT, source=0, destination=1, size_bytes=5, path=[0, 1]))
        sim.run_until_idle()
        assert sim.average_delivery_latency() == pytest.approx(1.5)
        assert sim.average_delivery_latency(kinds=[MessageKind.RESULT]) == pytest.approx(1.0)
        assert sim.average_delivery_latency(kinds=[MessageKind.CONTROL]) == 0.0

    def test_register_handler_unknown_node(self):
        sim = NetworkSimulator(chain_topology())
        with pytest.raises(KeyError):
            sim.register_handler(99, lambda n, m: None)


class TestRunUntilIdleTruncation:
    def _send_long(self, sim):
        sim.send(Message(
            kind=MessageKind.DATA, source=0, destination=4, size_bytes=5,
            path=[0, 1, 2, 3, 4],
        ))

    def test_truncation_warns_and_flags(self):
        sim = NetworkSimulator(chain_topology())
        self._send_long(sim)
        with pytest.warns(RuntimeWarning, match="still in flight"):
            cycles = sim.run_until_idle(max_cycles=2)
        assert cycles == 2
        assert sim.last_run_truncated
        assert sim.in_flight_count == 1

    def test_clean_drain_clears_the_flag(self):
        sim = NetworkSimulator(chain_topology())
        self._send_long(sim)
        with pytest.warns(RuntimeWarning):
            sim.run_until_idle(max_cycles=1)
        sim.run_until_idle()
        assert not sim.last_run_truncated
        assert sim.in_flight_count == 0


class TestBoundedDeliveredList:
    def test_delivered_list_is_bounded(self):
        sim = NetworkSimulator(chain_topology(), delivered_limit=3)
        for _ in range(5):
            sim.send(Message(kind=MessageKind.DATA, source=0, destination=1,
                             size_bytes=5, path=[0, 1]))
            sim.run_until_idle()
        assert len(sim.delivered) == 3

    def test_latency_stays_exact_beyond_the_bound(self):
        """The streaming sink covers every delivery, not the retained tail.

        Equivalence check against the old exact list mean: deliveries with
        latencies 1..5 average 3.0 even though only the last 2 messages are
        retained.
        """
        sim = NetworkSimulator(chain_topology(length=6), delivered_limit=2)
        for hops in range(1, 6):
            sim.send(Message(kind=MessageKind.DATA, source=0, destination=hops,
                             size_bytes=5, path=list(range(hops + 1))))
            sim.run_until_idle()
        assert len(sim.delivered) == 2
        assert sim.latency.count == 5
        # old implementation: sum(1..5) / 5
        assert sim.average_delivery_latency() == pytest.approx(3.0)
        assert sim.average_delivery_latency([MessageKind.DATA]) == pytest.approx(3.0)
        assert sim.average_delivery_latency([MessageKind.RESULT]) == 0.0

    def test_instant_transfers_count_as_zero_latency(self):
        sim = NetworkSimulator(chain_topology())
        sim.transfer([0, 1, 2], 10, deliver=True)
        assert sim.latency.count == 1
        assert sim.average_delivery_latency() == 0.0


class TestClock:
    def test_clock_rollover(self):
        sim = NetworkSimulator(chain_topology(), transmission_cycles_per_sample=3)
        sim.run_transmission_cycles(7)
        assert sim.clock.sampling_cycle == 2
        assert sim.clock.transmission_cycle == 1
        assert sim.clock.total_transmission_cycles == 7

    def test_advance_sampling_resets_transmission(self):
        sim = NetworkSimulator(chain_topology(), transmission_cycles_per_sample=10)
        sim.run_transmission_cycles(4)
        sim.advance_sampling_cycle()
        assert sim.clock.sampling_cycle == 1
        assert sim.clock.transmission_cycle == 0
