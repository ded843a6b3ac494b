"""Tests for topology generation and graph utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    DENSITY_PRESETS,
    SensorNode,
    Topology,
    grid_topology,
    intel_lab_topology,
    random_topology,
    topology_from_preset,
)
from tests.network.topology_oracle import csr_from_mapping


def _positions(topology):
    return {node_id: node.position for node_id, node in topology.nodes.items()}


def small_line_topology():
    """0 - 1 - 2 - 3 chain used by several tests."""
    nodes = {i: SensorNode(node_id=i, position=(float(i), 0.0)) for i in range(4)}
    adjacency = csr_from_mapping({0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}, 4)
    return Topology(nodes=nodes, adjacency=adjacency, base_id=0, radio_range=1.5)


class TestTopologyBasics:
    def test_validation_rejects_unknown_base(self):
        nodes = {0: SensorNode(node_id=0, position=(0, 0))}
        with pytest.raises(ValueError):
            Topology(nodes=nodes, adjacency=csr_from_mapping({0: set()}, 1),
                     base_id=5)

    def test_validation_rejects_asymmetric_adjacency(self):
        nodes = {i: SensorNode(node_id=i, position=(i, 0)) for i in range(2)}
        with pytest.raises(ValueError):
            Topology(nodes=nodes,
                     adjacency=csr_from_mapping({0: {1}, 1: set()}, 2),
                     base_id=0)

    def test_validation_rejects_unknown_neighbor(self):
        nodes = {0: SensorNode(node_id=0, position=(0, 0))}
        with pytest.raises(ValueError):
            Topology(nodes=nodes, adjacency=csr_from_mapping({0: {9}}, 1),
                     base_id=0)

    def test_base_flag_set(self):
        topo = small_line_topology()
        assert topo.nodes[topo.base_id].is_base
        assert topo.base_id == 0

    def test_neighbors_and_degree(self):
        topo = small_line_topology()
        assert topo.neighbors(1) == [0, 2]
        assert topo.average_degree() == pytest.approx(1.5)

    def test_neighbors_filter_dead(self):
        topo = small_line_topology()
        topo.nodes[2].fail()
        assert topo.neighbors(1) == [0]
        assert topo.neighbors(1, only_alive=False) == [0, 2]

    def test_shortest_path_and_hops(self):
        topo = small_line_topology()
        assert topo.shortest_path(0, 3) == [0, 1, 2, 3]
        assert topo.hops_between(0, 3) == 3
        assert topo.shortest_path(2, 2) == [2]
        assert topo.hops_between(2, 2) == 0

    def test_shortest_path_respects_failures(self):
        topo = small_line_topology()
        topo.nodes[1].fail()
        assert topo.shortest_path(0, 3) is None
        assert topo.hops_between(0, 3) is None

    def test_shortest_hops_map(self):
        topo = small_line_topology()
        hops = topo.shortest_hops_view(0)
        assert hops == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_is_connected(self):
        topo = small_line_topology()
        assert topo.is_connected()
        topo.nodes[1].fail()
        assert not topo.is_connected()
        assert topo.is_connected(only_alive=False)

    def test_distance(self):
        topo = small_line_topology()
        assert topo.distance(0, 3) == pytest.approx(3.0)

    def test_copy_is_independent(self):
        topo = small_line_topology()
        clone = topo.copy()
        clone.nodes[1].fail()
        clone.remove_links_of(1)
        assert topo.nodes[1].alive
        assert 1 in topo.neighbors(0, only_alive=False)

    def test_remove_and_rebuild_links(self):
        topo = small_line_topology()
        topo.remove_links_of(1)
        assert topo.neighbors(1) == []
        assert 1 not in topo.neighbors(0, only_alive=False)
        rebuilt = topo.rebuild_links_of(1)
        assert rebuilt == [0, 2]


class TestGenerators:
    @pytest.mark.parametrize("preset,target", sorted(DENSITY_PRESETS.items()))
    def test_random_presets_hit_density(self, preset, target):
        topo = topology_from_preset(preset, num_nodes=100, seed=1)
        assert topo.num_nodes == 100
        assert topo.is_connected()
        # Degree should be within ~20% of the requested density.
        assert topo.average_degree() == pytest.approx(target, rel=0.25)

    def test_random_topology_deterministic_per_seed(self):
        a = random_topology(num_nodes=50, average_degree=7, seed=3)
        b = random_topology(num_nodes=50, average_degree=7, seed=3)
        assert _positions(a) == _positions(b)
        assert [a.adjacency.row_list(n) for n in a.node_ids] == \
            [b.adjacency.row_list(n) for n in b.node_ids]

    def test_random_topology_different_seeds_differ(self):
        a = random_topology(num_nodes=50, average_degree=7, seed=3)
        b = random_topology(num_nodes=50, average_degree=7, seed=4)
        assert _positions(a) != _positions(b)

    def test_random_topology_validation(self):
        with pytest.raises(ValueError):
            random_topology(num_nodes=1)
        with pytest.raises(ValueError):
            random_topology(average_degree=0)

    def test_grid_topology(self):
        topo = grid_topology(num_nodes=100)
        assert topo.num_nodes == 100
        assert topo.is_connected()
        # 8-connected grid averages just under 7 neighbours at this size.
        assert 6.0 <= topo.average_degree() <= 8.0

    def test_grid_requires_square(self):
        with pytest.raises(ValueError):
            grid_topology(num_nodes=99)

    def test_intel_topology(self):
        topo = intel_lab_topology()
        assert topo.num_nodes == 54
        assert topo.is_connected()
        assert topo.nodes[topo.base_id].is_base

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            topology_from_preset("bogus")

    def test_scaleup_sizes(self):
        for count in (50, 100, 200):
            topo = random_topology(num_nodes=count, average_degree=8, seed=2)
            assert topo.num_nodes == count
            assert topo.is_connected()


class TestTopologyProperties:
    @given(st.integers(10, 60), st.integers(0, 5))
    @settings(max_examples=10, deadline=None)
    def test_random_topologies_connected_and_symmetric(self, num_nodes, seed):
        topo = random_topology(num_nodes=num_nodes, average_degree=6, seed=seed)
        assert topo.is_connected()
        for node_id in topo.node_ids:
            for other in topo.neighbors(node_id, only_alive=False):
                assert node_id in topo.neighbors(other, only_alive=False)

    @given(st.integers(0, 4))
    @settings(max_examples=5, deadline=None)
    def test_path_lengths_match_hop_map(self, seed):
        topo = random_topology(num_nodes=40, average_degree=7, seed=seed)
        hops = topo.shortest_hops_view(topo.base_id)
        for node_id in topo.node_ids:
            path = topo.shortest_path(topo.base_id, node_id)
            assert path is not None
            assert len(path) - 1 == hops[node_id]
