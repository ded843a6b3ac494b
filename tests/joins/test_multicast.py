"""Tests for multicast trees and path collapsing."""

import pytest

from repro.joins import build_multicast_tree, collapse_paths
from repro.joins.multicast import tree_cost
from repro.network.topology import grid_topology


class TestMulticastTree:
    def test_shared_prefix_counted_once(self):
        tree = build_multicast_tree(1, [[1, 2, 3, 4], [1, 2, 3, 5]])
        assert tree.edge_count == 4  # 1-2, 2-3, 3-4, 3-5
        assert tree.destinations == {4, 5}
        assert tree_cost(tree) < 6   # two unicast paths of three hops each
        assert tree.maintenance_bytes() == 2 * len(tree.nodes)

    def test_paths_must_start_at_root(self):
        with pytest.raises(ValueError):
            build_multicast_tree(1, [[2, 3]])

    def test_empty_paths_ignored(self):
        tree = build_multicast_tree(1, [[], [1, 2]])
        assert tree.edge_count == 1

    def test_disjoint_branches(self):
        tree = build_multicast_tree(0, [[0, 1, 2], [0, 3, 4], [0, 5]])
        assert tree.edge_count == 5
        assert tree.nodes == {0, 1, 2, 3, 4, 5}


class TestPathCollapse:
    def test_collapse_reduces_tree_cost_when_paths_cross(self):
        topo = grid_topology(num_nodes=25)  # 5x5 grid, ids row-major
        # Two paths from node 0: one along the bottom row, one along the left
        # column then right; nodes 6 and 1 are adjacent (diagonal 8-connectivity).
        path_a = [0, 1, 2, 3, 4]
        path_b = [0, 5, 10, 11, 12]
        collapsed = collapse_paths(topo, 0, [path_a, path_b])
        before = tree_cost(build_multicast_tree(0, [path_a, path_b]))
        after = tree_cost(build_multicast_tree(0, collapsed))
        assert after <= before
        # Destinations are preserved.
        assert {p[-1] for p in collapsed} == {4, 12}

    def test_collapse_single_path_is_noop(self):
        topo = grid_topology(num_nodes=25)
        assert collapse_paths(topo, 0, [[0, 1, 2]]) == [[0, 1, 2]]

    def test_collapse_never_increases_cost(self):
        topo = grid_topology(num_nodes=36)
        paths = [[0, 1, 2, 3], [0, 6, 12, 13], [0, 7, 14, 21]]
        collapsed = collapse_paths(topo, 0, paths)
        before = tree_cost(build_multicast_tree(0, paths))
        after = tree_cost(build_multicast_tree(0, collapsed))
        assert after <= before
        assert {p[-1] for p in collapsed} == {p[-1] for p in paths}
