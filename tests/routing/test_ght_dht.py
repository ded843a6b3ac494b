"""Tests for the GHT/GPSR and DHT substrates."""

import pytest

from repro.network.topology import grid_topology, random_topology
from repro.routing import DHTSubstrate, GHTSubstrate, MultiTreeSubstrate
from repro.routing.paths import path_quality_for_pairs


@pytest.fixture
def topo():
    return random_topology(num_nodes=60, average_degree=8, seed=9)


class TestGHT:
    def test_hash_location_inside_bounds(self, topo):
        ght = GHTSubstrate(topo)
        for key in range(25):
            x, y = ght.hash_location(key)
            xmin, ymin, xmax, ymax = ght._bounds
            assert xmin <= x <= xmax
            assert ymin <= y <= ymax

    def test_home_node_is_closest(self, topo):
        ght = GHTSubstrate(topo)
        key = 17
        home = ght.home_node(key)
        location = ght.hash_location(key)
        best = min(
            topo.node_ids, key=lambda nid: ght._distance_to(nid, location)
        )
        assert home == best

    def test_home_node_deterministic(self, topo):
        assert GHTSubstrate(topo).home_node(5) == GHTSubstrate(topo).home_node(5)

    def test_home_node_skips_dead(self, topo):
        ght = GHTSubstrate(topo)
        home = ght.home_node(7)
        topo.nodes[home].fail()
        assert ght.home_node(7) != home

    def test_greedy_route_reaches_home(self, topo):
        ght = GHTSubstrate(topo)
        for key in range(10):
            home = ght.home_node(key)
            for source in topo.node_ids[:5]:
                path = ght.greedy_route(source, key)
                assert path[0] == source
                assert path[-1] == home
                for a, b in zip(path, path[1:]):
                    assert b in topo.neighbors(a, only_alive=False)

    def test_rendezvous_route(self, topo):
        ght = GHTSubstrate(topo)
        source, target = topo.node_ids[1], topo.node_ids[-2]
        path = ght.rendezvous_route(source, target, key=3)
        assert path[0] == source
        assert path[-1] == target

    def test_rendezvous_longer_than_direct_on_average(self, topo):
        """GHT ignores locality, so its paths are longer (Figure 16a)."""
        ght = GHTSubstrate(topo)
        substrate = MultiTreeSubstrate(topo, num_trees=3)
        ids = topo.node_ids
        pairs = [(ids[i], ids[-1 - i]) for i in range(20)]
        ght_quality = path_quality_for_pairs(
            ght.paths_for_pairs(pairs, key_of=lambda pair: pair[0] % 7)
        )
        tree_quality = path_quality_for_pairs(substrate.paths_for_pairs(pairs))
        assert ght_quality.average_path_length > tree_quality.average_path_length


class TestDHT:
    def test_home_node_deterministic_and_alive(self, topo):
        dht = DHTSubstrate(topo)
        home = dht.home_node("sensor-key")
        assert home in topo.node_ids
        assert dht.home_node("sensor-key") == home
        topo.nodes[home].fail()
        assert dht.home_node("sensor-key") != home

    def test_routes_are_shortest_paths(self, topo):
        dht = DHTSubstrate(topo)
        for key in range(5):
            home = dht.home_node(key)
            for source in topo.node_ids[:5]:
                path = dht.route(source, key)
                assert path[0] == source
                assert path[-1] == home
                assert len(path) - 1 == topo.hops_between(source, home)

    def test_rendezvous_route_endpoints(self, topo):
        dht = DHTSubstrate(topo)
        path = dht.rendezvous_route(topo.node_ids[2], topo.node_ids[-3], key=9)
        assert path[0] == topo.node_ids[2]
        assert path[-1] == topo.node_ids[-3]

    def test_hash_substrates_ignore_locality(self):
        """Both hash substrates rendezvous at a key's home node, so their paths
        are at least as long as the direct shortest paths (Section 2.2)."""
        topo = grid_topology(num_nodes=100)
        ght = GHTSubstrate(topo)
        dht = DHTSubstrate(topo)
        ids = topo.node_ids
        pairs = [(ids[i], ids[-1 - i]) for i in range(30)]
        key_of = lambda pair: pair[0] % 11
        direct = sum(topo.hops_between(a, b) for a, b in pairs) / len(pairs)
        ght_q = path_quality_for_pairs(ght.paths_for_pairs(pairs, key_of=key_of))
        dht_q = path_quality_for_pairs(dht.paths_for_pairs(pairs, key_of=key_of))
        assert ght_q.average_path_length >= direct
        assert dht_q.average_path_length >= direct

    def test_keys_spread_across_home_nodes(self, topo):
        dht = DHTSubstrate(topo)
        homes = {dht.home_node(key) for key in range(200)}
        assert len(homes) > 10
