"""Tests for routing-tree construction, routing and repair."""

import pytest

from repro.network import NetworkSimulator
from repro.network.topology import grid_topology, random_topology
from repro.routing import RoutingTree


@pytest.fixture
def topo():
    return random_topology(num_nodes=60, average_degree=7, seed=5)


class TestConstruction:
    def test_covers_all_nodes(self, topo):
        tree = RoutingTree(topo)
        assert set(tree.parent) == set(topo.node_ids)
        assert tree.depth_of(tree.root) == 0
        assert tree.parent_of(tree.root) is None

    def test_unknown_root(self, topo):
        with pytest.raises(KeyError):
            RoutingTree(topo, root=10_000)

    def test_depths_match_bfs(self, topo):
        tree = RoutingTree(topo)
        hops = topo.shortest_hops_view(topo.base_id)
        for node in topo.node_ids:
            assert tree.depth_of(node) == hops[node]

    def test_parent_child_consistency(self, topo):
        tree = RoutingTree(topo)
        for node in sorted(tree.parent):
            for child in tree.children.get(node, []):
                assert tree.parent_of(child) == node
                assert tree.depth_of(child) == tree.depth_of(node) + 1

    def test_alternate_root(self, topo):
        other_root = [n for n in topo.node_ids if n != topo.base_id][0]
        tree = RoutingTree(topo, root=other_root)
        assert tree.root == other_root
        assert tree.depth_of(other_root) == 0


class TestRouting:
    def test_path_to_root(self, topo):
        tree = RoutingTree(topo)
        for node in topo.node_ids[:10]:
            path = tree.path_to_root(node)
            assert path[0] == node
            assert path[-1] == tree.root
            assert len(path) == tree.depth_of(node) + 1

    def test_path_from_root_reverses(self, topo):
        tree = RoutingTree(topo)
        node = topo.node_ids[7]
        assert tree.path_from_root(node) == list(reversed(tree.path_to_root(node)))

    def test_route_between_nodes(self, topo):
        tree = RoutingTree(topo)
        nodes = topo.node_ids
        source, target = nodes[3], nodes[-4]
        route = tree.route(source, target)
        assert route[0] == source
        assert route[-1] == target
        # Adjacent hops must be neighbours in the topology.
        for a, b in zip(route, route[1:]):
            assert b in topo.neighbors(a, only_alive=False)

    def test_route_to_self(self, topo):
        tree = RoutingTree(topo)
        assert tree.route(5, 5) == [5]

    def test_uncovered_node_raises(self, topo):
        tree = RoutingTree(topo)
        with pytest.raises(KeyError):
            tree.path_to_root(10_000)

    def test_subtree_nodes_and_leaf(self, topo):
        tree = RoutingTree(topo)
        all_nodes = tree.subtree_nodes(tree.root)
        assert sorted(all_nodes) == sorted(topo.node_ids)
        leaves = [n for n in topo.node_ids if not tree.children.get(n, [])]
        assert leaves  # any non-trivial tree has leaves
        for leaf in leaves[:5]:
            assert tree.subtree_nodes(leaf) == [leaf]


class TestRepair:
    def test_repair_reattaches_subtree(self):
        topo = grid_topology(num_nodes=49)
        tree = RoutingTree(topo)
        # Fail an interior node that has children in the tree.
        victim = next(
            n for n in topo.node_ids
            if n != tree.root and tree.children.get(n, [])
        )
        topo.nodes[victim].fail()
        stranded = tree.repair_after_failure(victim)
        assert stranded == []
        assert victim not in tree.parent
        # Tree still spans every alive node.
        alive = [n for n in topo.node_ids if topo.nodes[n].alive]
        assert sorted(tree.parent) == sorted(alive)
        for node in sorted(tree.parent):
            if node != tree.root:
                assert tree.parent_of(node) in tree.parent

    def test_repair_charges_traffic(self):
        topo = grid_topology(num_nodes=49)
        tree = RoutingTree(topo)
        sim = NetworkSimulator(topo)
        victim = next(
            n for n in topo.node_ids if n != tree.root and tree.children.get(n, [])
        )
        topo.nodes[victim].fail()
        tree.repair_after_failure(victim, simulator=sim)
        assert sim.stats.total() > 0

    def test_repair_unknown_node_is_noop(self):
        topo = grid_topology(num_nodes=25)
        tree = RoutingTree(topo)
        assert tree.repair_after_failure(10_000) == []

    def test_repair_of_leaf(self):
        topo = grid_topology(num_nodes=25)
        tree = RoutingTree(topo)
        leaf = next(n for n in topo.node_ids if not tree.children.get(n, []) and n != tree.root)
        topo.nodes[leaf].fail()
        stranded = tree.repair_after_failure(leaf)
        assert stranded == []
        assert leaf not in tree.parent
