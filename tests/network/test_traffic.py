"""Tests for traffic statistics."""

from repro.network import MessageKind, TrafficAccounting, TrafficStats


class TestTrafficStats:
    def test_byte_accounting(self):
        stats = TrafficStats()
        stats.charge_transmission(1, 20, MessageKind.DATA, receiver=2)
        stats.charge_transmission(2, 20, MessageKind.DATA, receiver=3)
        assert stats.total() == 40.0
        assert stats.at_node(2) == 40.0  # 20 received + 20 transmitted
        assert stats.at_node(3) == 20.0
        assert stats.messages_sent == 2

    def test_message_accounting(self):
        stats = TrafficStats(accounting=TrafficAccounting.MESSAGES)
        stats.charge_transmission(1, 500, MessageKind.DATA, receiver=2)
        assert stats.total() == 1.0
        # at_node counts transmitted + received; node 2 only received 1 message.
        assert stats.at_node(2) == 1.0
        assert stats.at_node(1) == 1.0

    def test_retransmissions_charged(self):
        stats = TrafficStats()
        stats.charge_transmission(1, 10, MessageKind.DATA, attempts=3, receiver=2)
        assert stats.transmitted[1] == 30.0
        assert stats.received[2] == 10.0

    def test_by_kind_breakdown(self):
        stats = TrafficStats()
        stats.charge_transmission(1, 10, MessageKind.DATA)
        stats.charge_transmission(1, 5, MessageKind.CONTROL)
        breakdown = stats.traffic_by_kind()
        assert breakdown[MessageKind.DATA] == 10.0
        assert breakdown[MessageKind.CONTROL] == 5.0

    def test_top_loaded_nodes(self):
        stats = TrafficStats()
        for node, amount in [(1, 100), (2, 50), (3, 75)]:
            stats.charge_transmission(node, amount, MessageKind.DATA)
        top = stats.top_loaded_nodes(k=2)
        assert [node for node, _ in top] == [1, 3]

    def test_max_node_load_with_exclusion(self):
        stats = TrafficStats()
        stats.charge_transmission(0, 1000, MessageKind.DATA)
        stats.charge_transmission(5, 10, MessageKind.DATA)
        assert stats.max_node_load() == 1000.0
        assert stats.max_node_load(exclude=(0,)) == 10.0

    def test_drops(self):
        stats = TrafficStats()
        stats.charge_drop()
        stats.charge_drop()
        assert stats.messages_dropped == 2

    def test_snapshot(self):
        stats = TrafficStats()
        stats.charge_transmission(1, 10, MessageKind.DATA)
        stats.charge_drop()
        snap = stats.snapshot()
        assert snap["total"] == 10.0
        assert snap["messages_dropped"] == 1

    def test_snapshot_carries_by_kind_and_max_node_load(self):
        """Harness rows read these directly instead of re-deriving them."""
        stats = TrafficStats()
        stats.charge_transmission(1, 10, MessageKind.DATA, receiver=2)
        stats.charge_transmission(2, 5, MessageKind.CONTROL)
        snap = stats.snapshot()
        # original keys kept for compatibility
        assert {"total", "messages_sent", "messages_dropped"} <= set(snap)
        assert snap["max_node_load"] == stats.max_node_load() == 15.0
        assert snap["by_kind"] == {"data": 10.0, "control": 5.0}
