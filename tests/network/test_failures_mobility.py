"""Tests for failure injection and mobility support."""

import pytest

from repro.network import FailureInjector, MobilityEvent, move_leaf_node
from repro.network.failures import FailureEvent
from repro.network.mobility import candidate_positions_near, is_leaf, max_supported_speed
from repro.network.topology import (
    grid_topology,
    intel_lab_topology,
    random_topology,
    topology_from_preset,
)
from tests.network import topology_oracle as oracle


class TestFailureInjector:
    def test_schedule_and_apply(self):
        topo = random_topology(num_nodes=20, average_degree=6, seed=0)
        injector = FailureInjector()
        victim = [n for n in topo.node_ids if n != topo.base_id][0]
        injector.schedule(victim, sampling_cycle=5)
        assert injector.failures_at(5) == [victim]
        assert injector.apply(topo, 4) == []
        assert injector.apply(topo, 5) == [victim]
        assert not topo.nodes[victim].alive
        # Re-applying does nothing (node already dead).
        assert injector.apply(topo, 5) == []

    def test_schedule_fraction(self):
        injector = FailureInjector()
        injector.schedule_fraction_of_run(3, total_cycles=100, fraction=0.45)
        assert injector.events == [FailureEvent(node_id=3, sampling_cycle=45)]
        with pytest.raises(ValueError):
            injector.schedule_fraction_of_run(3, 100, 1.5)

    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError):
            FailureEvent(node_id=1, sampling_cycle=-1)


class TestMobility:
    def test_move_leaf_node_rewires_links(self):
        topo = grid_topology(num_nodes=25)
        # A corner node is a leaf in the sense that its removal keeps connectivity.
        corner = 0
        assert is_leaf(topo, corner)
        old_neighbours = set(topo.neighbors(corner))
        target = topo.nodes[24].position
        event = move_leaf_node(topo, corner, (target[0] - 1.0, target[1] - 1.0))
        assert isinstance(event, MobilityEvent)
        assert set(event.removed_links) <= old_neighbours
        assert event.added_links
        assert topo.is_connected()

    def test_cannot_move_base(self):
        topo = grid_topology(num_nodes=25)
        with pytest.raises(ValueError):
            move_leaf_node(topo, topo.base_id, (0.0, 0.0))

    def test_unknown_node(self):
        topo = grid_topology(num_nodes=25)
        with pytest.raises(KeyError):
            move_leaf_node(topo, 999, (0.0, 0.0))

    def test_move_out_of_range_rolls_back(self):
        topo = grid_topology(num_nodes=25)
        original = topo.nodes[0].position
        with pytest.raises(ValueError):
            move_leaf_node(topo, 0, (1e6, 1e6))
        assert topo.nodes[0].position == original
        assert topo.neighbors(0)  # links restored

    def test_changed_neighbors_property(self):
        event = MobilityEvent(
            node_id=1, old_position=(0, 0), new_position=(1, 1),
            removed_links=(2, 3), added_links=(3, 4),
        )
        assert event.changed_neighbors == (2, 3, 4)

    def test_max_supported_speed(self):
        # Appendix G: 10 m radio range, ~20 cycles to propagate -> 0.5 m/s.
        assert max_supported_speed(10.0, 20.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            max_supported_speed(10.0, 0.0)

    def test_candidate_positions(self):
        topo = grid_topology(num_nodes=25)
        candidates = candidate_positions_near(topo, 0, radius=5.0, count=4)
        assert len(candidates) == 4
        x0, y0 = topo.nodes[0].position
        for x, y in candidates:
            assert ((x - x0) ** 2 + (y - y0) ** 2) ** 0.5 == pytest.approx(5.0)


class TestLeafParity:
    """``is_leaf`` against the scalar rule kept in the topology oracle."""

    @pytest.mark.parametrize("build", [
        lambda: topology_from_preset("dense", num_nodes=100, seed=0),
        lambda: grid_topology(num_nodes=100),
        intel_lab_topology,
    ], ids=["dense", "grid", "intel"])
    def test_every_non_base_node_before_and_after_a_failure(self, build):
        topo = build()
        for failed in (None, topo.node_ids[-1]):
            if failed is not None:
                topo.nodes[failed].fail()
            adjacency, alive = oracle.dict_adjacency(topo), oracle.alive_ids(topo)
            for node in topo.node_ids:
                if node == topo.base_id:
                    continue
                expected = oracle.is_leaf(adjacency, alive, node, topo.base_id)
                assert is_leaf(topo, node) == expected, node
        assert not is_leaf(topo, topo.base_id)
