"""Tests for semantic routing tables and the multi-tree substrate."""

import pytest

from repro.network import NetworkSimulator
from repro.network.message import MessageKind
from repro.network.topology import grid_topology, random_topology
from repro.routing import MultiTreeSubstrate, RoutingTree, SemanticRoutingTable
from repro.routing.paths import path_quality_for_pairs
from repro.summaries import BloomFilterSummary, Rect, RectSummary


@pytest.fixture
def topo():
    topo = random_topology(num_nodes=50, average_degree=7, seed=11)
    for node_id, node in topo.nodes.items():
        node.set_static("group", node_id % 5)
    return topo


def bloom_factory():
    return BloomFilterSummary(num_bits=256)


class TestSemanticRoutingTable:
    def test_requires_extractors(self, topo):
        tree = RoutingTree(topo)
        with pytest.raises(ValueError):
            SemanticRoutingTable(tree, {"group": bloom_factory}, {})

    def test_subtree_summaries_cover_subtree_values(self, topo):
        tree = RoutingTree(topo)
        table = SemanticRoutingTable(
            tree,
            {"group": bloom_factory},
            {"group": lambda nid: topo.nodes[nid].get_attribute("group")},
        )
        for node in topo.node_ids:
            summary = table.subtree_summary(node, "group")
            for member in tree.subtree_nodes(node):
                value = topo.nodes[member].get_attribute("group")
                assert summary.might_contain(value)

    def test_child_summary_pruning_no_false_negatives(self, topo):
        tree = RoutingTree(topo)
        table = SemanticRoutingTable(
            tree,
            {"group": bloom_factory},
            {"group": lambda nid: topo.nodes[nid].get_attribute("group")},
        )
        target_value = 3
        holders = {
            nid for nid in topo.node_ids
            if topo.nodes[nid].get_attribute("group") == target_value
        }
        # Every holder must be reachable through children flagged as matching.
        for node in topo.node_ids:
            matching_children = set(
                table.children_that_might_match(
                    node, "group", lambda summary: summary.might_contain(target_value))
            )
            for child in tree.children_of(node):
                subtree = set(tree.subtree_nodes(child))
                if subtree & holders:
                    assert child in matching_children

    def test_rect_summaries(self, topo):
        tree = RoutingTree(topo)
        table = SemanticRoutingTable(
            tree,
            {"pos": RectSummary},
            {"pos": lambda nid: topo.nodes[nid].position},
        )
        xs, ys = zip(*(topo.nodes[nid].position for nid in topo.node_ids))
        root_summary = table.subtree_summary(tree.root, "pos")
        assert root_summary.bounding_rect() == Rect(min(xs), min(ys), max(xs), max(ys))

    def test_maintenance_traffic_charged(self, topo):
        tree = RoutingTree(topo)
        sim = NetworkSimulator(topo)
        table = SemanticRoutingTable(
            tree,
            {"group": bloom_factory},
            {"group": lambda nid: topo.nodes[nid].get_attribute("group")},
        )
        table.build(sim)
        assert sim.stats.total() > 0
        assert table.total_maintenance_bytes() > 0


class TestMultiTreeSubstrate:
    def test_tree_roots_are_spread_out(self, topo):
        substrate = MultiTreeSubstrate(topo, num_trees=3)
        roots = [tree.root for tree in substrate.trees]
        assert roots[0] == topo.base_id
        assert len(set(roots)) == 3
        # Later roots should be several hops from the base.
        assert topo.hops_between(roots[0], roots[1]) >= 2

    def test_needs_at_least_one_tree(self, topo):
        with pytest.raises(ValueError):
            MultiTreeSubstrate(topo, num_trees=0)

    def test_hops_to_base_matches_primary_tree(self, topo):
        substrate = MultiTreeSubstrate(topo, num_trees=2)
        hops = topo.shortest_hops(topo.base_id)
        for node in topo.node_ids:
            assert substrate.hops_to_base(node) == hops[node]

    def test_best_route_improves_with_more_trees(self, topo):
        pairs = [(topo.node_ids[i], topo.node_ids[-1 - i]) for i in range(10)]
        substrate = MultiTreeSubstrate(topo, num_trees=3)
        single = path_quality_for_pairs(substrate.paths_for_pairs(pairs, num_trees=1))
        triple = path_quality_for_pairs(substrate.paths_for_pairs(pairs, num_trees=3))
        assert triple.average_path_length <= single.average_path_length

    def test_best_route_endpoints_and_adjacency(self, topo):
        substrate = MultiTreeSubstrate(topo, num_trees=3)
        route = substrate.best_route(topo.node_ids[2], topo.node_ids[-3])
        assert route[0] == topo.node_ids[2]
        assert route[-1] == topo.node_ids[-3]
        for a, b in zip(route, route[1:]):
            assert b in topo.neighbors(a, only_alive=False)

    def test_content_search_finds_all_holders(self, topo):
        substrate = MultiTreeSubstrate(
            topo,
            num_trees=2,
            indexed_attributes={"group": bloom_factory},
            value_extractors={"group": lambda nid: topo.nodes[nid].get_attribute("group")},
        )
        source = topo.node_ids[5]
        wanted = topo.nodes[source].get_attribute("group")
        result = substrate.find_matches(
            source,
            "group",
            summary_probe=lambda summary: summary.might_contain(wanted),
            node_matches=lambda nid: topo.nodes[nid].get_attribute("group") == wanted,
        )
        expected = {
            nid for nid in topo.node_ids
            if nid != source and topo.nodes[nid].get_attribute("group") == wanted
        }
        assert set(result.paths) == expected
        # every recorded message crosses one tree edge
        assert result.edges
        for sender, receiver, path_len in result.edges:
            assert receiver in topo.neighbors(sender)
            assert path_len >= 1
        # Each discovered path must start at the source and end at the target.
        for target, candidates in result.paths.items():
            for pair_path in candidates:
                assert pair_path.path[0] == source
                assert pair_path.path[-1] == target
                assert len(pair_path.hops_to_base) == len(pair_path.path)

    def test_content_search_requires_index(self, topo):
        substrate = MultiTreeSubstrate(topo, num_trees=1)
        with pytest.raises(RuntimeError):
            substrate.find_matches(
                topo.node_ids[0], "group",
                summary_probe=lambda summary: True, node_matches=lambda nid: True,
            )

    def test_content_search_charges_nothing(self, topo):
        """The search only records its messages; shipping them is the
        caller's, whether it runs the search or replays a memoised one."""
        sim = NetworkSimulator(topo)
        substrate = MultiTreeSubstrate(
            topo,
            num_trees=2,
            indexed_attributes={"group": bloom_factory},
            value_extractors={"group": lambda nid: topo.nodes[nid].get_attribute("group")},
        )
        source = topo.node_ids[5]
        wanted = topo.nodes[source].get_attribute("group")
        result = substrate.find_matches(
            source,
            "group",
            summary_probe=lambda summary: summary.might_contain(wanted),
            node_matches=lambda nid: topo.nodes[nid].get_attribute("group") == wanted,
        )
        assert sim.stats.total() == 0
        for sender, receiver, path_len in result.edges:
            sim.transfer([sender, receiver], substrate.sizes.explore(path_len),
                         MessageKind.EXPLORE)
        assert sim.stats.traffic_by_kind()[MessageKind.EXPLORE] > 0

    def test_repair_after_failure(self):
        topo = grid_topology(num_nodes=49)
        for node_id, node in topo.nodes.items():
            node.set_static("group", node_id % 3)
        substrate = MultiTreeSubstrate(
            topo,
            num_trees=2,
            indexed_attributes={"group": bloom_factory},
            value_extractors={"group": lambda nid: topo.nodes[nid].get_attribute("group")},
        )
        victim = next(
            n for n in topo.node_ids
            if n != topo.base_id
            and n not in {t.root for t in substrate.trees}
            and substrate.primary_tree.children_of(n)
        )
        topo.nodes[victim].fail()
        stranded = substrate.repair_after_failure(victim)
        assert stranded == {}
        for tree in substrate.trees:
            assert victim not in tree.parent

    def test_repairing_a_copy_leaves_the_original(self):
        """Repair mutates the trees, which a substrate may share with the
        deployment memo: a copy repairs its own."""
        topo = grid_topology(num_nodes=49)
        substrate = MultiTreeSubstrate(topo, num_trees=2)
        before = [dict(tree.parent) for tree in substrate.trees]
        victim = next(
            n for n in topo.node_ids
            if n != topo.base_id
            and n not in {t.root for t in substrate.trees}
            and substrate.primary_tree.children_of(n)
        )
        twin = substrate.copy()
        topo.nodes[victim].fail()
        twin.repair_after_failure(victim)
        assert all(victim not in tree.parent for tree in twin.trees)
        assert [dict(tree.parent) for tree in substrate.trees] == before


class TestPathQualityTrend:
    def test_more_trees_never_hurt_path_length(self):
        """Reproduces the qualitative trend of Figure 16a."""
        topo = random_topology(num_nodes=80, average_degree=7, seed=3)
        substrate = MultiTreeSubstrate(topo, num_trees=3)
        ids = topo.node_ids
        pairs = [(ids[i], ids[len(ids) - 1 - i]) for i in range(0, 30)]
        lengths = []
        for k in (1, 2, 3):
            quality = path_quality_for_pairs(substrate.paths_for_pairs(pairs, num_trees=k))
            lengths.append(quality.average_path_length)
        assert lengths[0] >= lengths[1] >= lengths[2]
