"""The CSR topology layer against the scalar oracle.

Every topology the repo builds holds one :class:`CSRAdjacency`, found by a
grid-bucketed pair search and walked by array kernels (below
``ARRAY_BFS_MIN_NODES`` alive nodes, by a frontier loop over the same rows).
Each production rule is held to the dict-of-sets reference kept in
``tests/network/topology_oracle.py``: deployments (radius, base id, rows),
hop tables including their dict iteration order, shortest paths, routing
trees, GHT/DHT home nodes and multi-tree root picks -- through failures,
recoveries and link surgery -- and, end to end, experiment results on
topologies the oracle generated.
"""

import pytest

from repro.network import topology as topology_module
from repro.network.node import SensorNode
from repro.network.topology import (
    ARRAY_BFS_MIN_NODES,
    CSRAdjacency,
    Topology,
    grid_topology,
    intel_lab_topology,
    random_topology,
    scale_preset_degree,
    topology_from_preset,
)
from repro.routing.dht import _ID_SPACE, DHTSubstrate
from repro.routing.ght import GHTSubstrate
from repro.routing.multitree import MultiTreeSubstrate
from repro.routing.tree import RoutingTree
from tests.network import topology_oracle as oracle

SEEDS = [0, 1, 2, 5]
KEYS = ["alpha", "beta", ("pair", 3), 42, "zz"]


def _positions(topology):
    return {node_id: node.position for node_id, node in topology.nodes.items()}


def degree_for(num_nodes):
    """Degree 7 connects paper-scale deployments; larger ones need more."""
    return 7.0 if num_nodes < 1000 else scale_preset_degree(num_nodes)


def oracle_view(topology):
    return oracle.dict_adjacency(topology), oracle.alive_ids(topology)


def assert_bfs_matches_oracle(topology, sources, targets=()):
    adjacency, alive = oracle_view(topology)
    for source in sources:
        hops, parents = oracle.bfs_tables(adjacency, alive, source)
        produced = topology.shortest_hops_view(source)
        assert produced == hops
        # BFS discovery order shows through dict iteration order.
        assert list(produced) == list(hops)
        assert topology.routing_cache.bfs_tables(source)[1] == parents
        for target in targets:
            assert topology.shortest_path(source, target) == \
                oracle.shortest_path(adjacency, alive, source, target)
            assert topology.hops_between(source, target) == hops.get(target)


def oracle_random_topology(num_nodes=100, average_degree=7.0, area_size=256.0,
                           seed=0, name=None, max_attempts=50):
    """``random_topology`` rebuilt from the oracle's N x N generator."""
    positions, radius, adjacency, base_id, attempt = oracle.random_deployment(
        num_nodes, average_degree, area_size, seed, max_attempts)
    return Topology(
        nodes={i: SensorNode(node_id=i, position=positions[i]) for i in positions},
        adjacency=oracle.csr_from_mapping(adjacency, num_nodes),
        base_id=base_id, radio_range=radius,
        name=name or f"random-{average_degree:g}",
        area=(area_size, area_size),
        metadata={"seed": seed, "attempt": attempt, "target_degree": average_degree},
    )


class TestGenerationParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("num_nodes", [40, 120, 2000])
    def test_deployment_identical(self, seed, num_nodes):
        degree = degree_for(num_nodes)
        topo = random_topology(num_nodes=num_nodes, average_degree=degree, seed=seed)
        positions, radius, adjacency, base_id, attempt = oracle.random_deployment(
            num_nodes, degree, seed=seed)
        assert topo.radio_range == radius
        assert topo.base_id == base_id
        assert topo.metadata["attempt"] == attempt
        assert _positions(topo) == positions
        assert oracle.dict_adjacency(topo) == adjacency
        for node in topo.node_ids:
            assert topo.adjacency.row_list(node) == sorted(adjacency[node])
        assert topo.average_degree() == \
            sum(len(row) for row in adjacency.values()) / num_nodes

    @pytest.mark.parametrize("build", [
        lambda: grid_topology(num_nodes=100),
        lambda: grid_topology(num_nodes=400),
        intel_lab_topology,
    ], ids=["grid-100", "grid-400", "intel"])
    def test_fixed_radius_deployment_identical(self, build):
        topo = build()
        assert oracle.dict_adjacency(topo) == \
            oracle.adjacency_for_range(_positions(topo), topo.radio_range)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hop_tables_and_paths_identical(self, seed, monkeypatch):
        topo = random_topology(num_nodes=60, average_degree=7.0, seed=seed)
        sources, targets = topo.node_ids[::7], topo.node_ids[::5]
        assert_bfs_matches_oracle(topo, sources, targets)
        # the same graph through the array kernel
        monkeypatch.setattr(topology_module, "ARRAY_BFS_MIN_NODES", 0)
        topo.invalidate_routing_caches()
        assert_bfs_matches_oracle(topo, sources, targets)
        assert topo.is_connected()
        assert topo.is_connected(only_alive=False)

    def test_hop_tables_above_kernel_cutoff(self):
        topo = topology_from_preset("scale", num_nodes=ARRAY_BFS_MIN_NODES + 500, seed=0)
        nodes = topo.node_ids
        assert_bfs_matches_oracle(topo, [topo.base_id, nodes[7]], nodes[::997])

    @pytest.mark.parametrize("num_nodes", [60, ARRAY_BFS_MIN_NODES + 500])
    def test_both_kernels_agree(self, num_nodes):
        topo = random_topology(num_nodes=num_nodes,
                               average_degree=degree_for(num_nodes), seed=3)
        topo.nodes[topo.node_ids[5]].fail()
        cache = topo.routing_cache
        for source in (topo.base_id, topo.node_ids[-1]):
            loop = cache._frontier_bfs(source)
            array = cache._array_bfs(source)
            assert [list(v) for v in loop] == [v.tolist() for v in array]

    def test_scale_preset_connected_and_sparse(self):
        topo = topology_from_preset("scale", num_nodes=5000, seed=0)
        assert isinstance(topo.adjacency, CSRAdjacency)
        assert topo.is_connected()
        assert len(topo.nodes) == 5000
        assert scale_preset_degree(5000) >= 12.0
        assert scale_preset_degree(1_000_000) > scale_preset_degree(10_000)


class TestFromMapping:
    def test_rows_sorted_and_symmetric(self):
        adjacency = oracle.csr_from_mapping({0: {2, 1}, 1: {0}, 2: {0}, 3: set()}, 4)
        assert [adjacency.row_list(n) for n in range(4)] == [[1, 2], [0], [0], []]
        assert adjacency.total_degree() == 4

    @pytest.mark.parametrize("mapping,num_nodes", [
        ({0: {9}}, 1), ({5: set()}, 2), ({0: {1}, 1: set()}, 2), ({0: {1}}, 2),
    ])
    def test_rejects_unknown_ids_and_asymmetry(self, mapping, num_nodes):
        with pytest.raises(ValueError):
            oracle.csr_from_mapping(mapping, num_nodes)

    def test_isolate_and_connect(self):
        adjacency = oracle.csr_from_mapping({0: {1}, 1: {0, 2}, 2: {1}}, 4)
        adjacency.isolate(1)
        assert [adjacency.row_list(n) for n in range(4)] == [[], [], [], []]
        adjacency.connect(3, [2, 0])
        adjacency.connect(3, [1, 2])
        assert [adjacency.row_list(n) for n in range(4)] == [[3], [3], [3], [0, 1, 2]]


class TestMutationParity:
    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_failure_and_recovery(self, seed):
        topo = random_topology(num_nodes=60, average_degree=7.0, seed=seed)
        victim = next(n for n in topo.node_ids if n != topo.base_id)
        topo.shortest_hops_view(topo.base_id)  # warm, then invalidate
        topo.nodes[victim].fail()
        assert_bfs_matches_oracle(topo, [topo.base_id], topo.node_ids[::9])
        adjacency, alive = oracle_view(topo)
        for node in topo.node_ids[::9]:
            assert topo.neighbors(node) == sorted(adjacency[node] & alive)
        oracle.recover(topo.nodes[victim])
        assert_bfs_matches_oracle(topo, [topo.base_id, victim])

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_link_surgery(self, seed):
        topo = random_topology(num_nodes=60, average_degree=7.0, seed=seed)
        expected = oracle.dict_adjacency(topo)
        leaf = next(
            n for n in reversed(topo.node_ids)
            if n != topo.base_id and len(topo.neighbors(n)) >= 2
        )
        topo.shortest_hops_view(topo.base_id)  # warm, then invalidate
        topo.remove_links_of(leaf)
        for other in expected[leaf]:
            expected[other].discard(leaf)
        expected[leaf] = set()
        assert oracle.dict_adjacency(topo) == expected
        assert topo.neighbors(leaf) == []
        assert_bfs_matches_oracle(topo, [topo.base_id])
        rebuilt = topo.rebuild_links_of(leaf)
        within = {
            other for other in topo.node_ids
            if other != leaf and topo.distance(leaf, other) <= topo.radio_range
        }
        assert rebuilt == sorted(within)
        for other in within:
            expected[other].add(leaf)
        expected[leaf] = within
        assert oracle.dict_adjacency(topo) == expected
        assert_bfs_matches_oracle(topo, [leaf, topo.base_id], topo.node_ids[::9])

    def test_copy_is_independent(self):
        topo = random_topology(num_nodes=60, average_degree=7.0, seed=0)
        clone = topo.copy()
        victim = next(n for n in topo.node_ids if n != topo.base_id)
        clone.nodes[victim].fail()
        assert topo.nodes[victim].alive
        assert victim in topo.shortest_hops_view(topo.base_id)
        assert victim not in clone.shortest_hops_view(clone.base_id)
        before = oracle.dict_adjacency(topo)
        clone.remove_links_of(victim)
        assert oracle.dict_adjacency(topo) == before
        assert clone.neighbors(victim, only_alive=False) == []


class TestRoutingParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_routing_tree(self, seed):
        topo = random_topology(num_nodes=60, average_degree=7.0, seed=seed)
        adjacency, alive = oracle_view(topo)
        for tie_break_seed in (0, 1, 2):
            parent, children, depth = oracle.routing_tree(
                adjacency, alive, topo.base_id, tie_break_seed)
            tree = RoutingTree(topo, tie_break_seed=tie_break_seed)
            assert tree.parent == parent
            assert tree.children == children
            # dict insertion order == BFS discovery order in both builds
            assert list(tree.depth) == list(depth)
            assert tree.depth == depth

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_tree_repair_after_failure(self, seed):
        topo = random_topology(num_nodes=60, average_degree=7.0, seed=seed)
        tree = RoutingTree(topo)
        victim = next(
            n for n in topo.node_ids if n != topo.base_id and tree.children.get(n)
        )
        orphans = set(tree.subtree_nodes(victim)) - {victim}
        topo.nodes[victim].fail()
        unattached = tree.repair_after_failure(victim)
        adjacency, alive = oracle_view(topo)
        reachable = oracle.bfs_tables(adjacency, alive, topo.base_id)[0]
        assert unattached == sorted(orphans - set(reachable))
        assert set(tree.parent) == set(reachable)
        for node, parent in tree.parent.items():
            if parent is not None:
                assert parent in adjacency[node] and parent in alive
                assert tree.depth[node] == tree.depth[parent] + 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_multitree_roots(self, seed):
        topo = random_topology(num_nodes=60, average_degree=7.0, seed=seed)
        substrate = MultiTreeSubstrate(topo, num_trees=3)
        adjacency, alive = oracle_view(topo)
        roots = [topo.base_id]
        for _ in range(2):
            roots.append(oracle.furthest_root(adjacency, alive, roots, topo.base_id))
        assert [t.root for t in substrate.trees] == roots

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ght_and_dht_home_nodes(self, seed):
        topo = random_topology(num_nodes=60, average_degree=7.0, seed=seed)
        ght, dht = GHTSubstrate(topo), DHTSubstrate(topo)
        substrate = MultiTreeSubstrate(topo, num_trees=2)
        victim = next(n for n in topo.node_ids if n != topo.base_id)
        leaf = next(n for n in reversed(topo.node_ids) if n not in (topo.base_id, victim))

        def check():
            for key in KEYS:
                assert ght.home_node(key) == oracle.ght_home(topo, ght, key)
                assert dht.home_node(key) == oracle.dht_home(topo, dht, key, _ID_SPACE)
            adjacency, alive = oracle_view(topo)
            roots = [tree.root for tree in substrate.trees]
            assert substrate._furthest_from_existing_roots() == \
                oracle.furthest_root(adjacency, alive, roots, topo.base_id)

        check()
        # epoch-invalidated rescans through each kind of change
        for change in (topo.nodes[victim].fail, lambda: oracle.recover(topo.nodes[victim]),
                       lambda: topo.remove_links_of(leaf),
                       lambda: topo.rebuild_links_of(leaf)):
            change()
            check()


class TestLandmarks:
    def test_approx_hops_is_an_exact_upper_bound(self):
        topo = random_topology(num_nodes=120, average_degree=7.0, seed=3)
        cache = topo.routing_cache.validate()
        landmark_ids, matrix = cache.landmark_tables(num_landmarks=4)
        assert matrix.shape == (len(landmark_ids), len(topo.nodes))
        nodes = topo.node_ids
        for a in nodes[::11]:
            assert cache.approx_hops(a, a, num_landmarks=4) == 0
            for b in nodes[::13]:
                exact = topo.hops_between(a, b)
                approx = cache.approx_hops(a, b, num_landmarks=4)
                if exact is None:
                    continue
                assert approx >= exact
        # exact whenever one endpoint is a landmark (triangle collapses)
        for landmark in landmark_ids.tolist():
            for b in nodes[::17]:
                exact = topo.hops_between(landmark, b)
                if exact is not None:
                    assert cache.approx_hops(landmark, b, num_landmarks=4) == exact


class TestExperimentIdentity:
    """Experiments give identical results on topologies the oracle generated."""

    @pytest.fixture
    def generator(self, monkeypatch):
        from repro.engine.workload import reset_workload_caches

        def use(oracle_generated):
            monkeypatch.setattr(
                topology_module, "random_topology",
                oracle_random_topology if oracle_generated else random_topology,
            )
            reset_workload_caches()

        yield use
        reset_workload_caches()

    def test_fig14_failure_same_on_oracle_graph(self, generator):
        from repro.engine import SCALES
        from repro.experiments.figures_adaptive import fig14_scenario
        from repro.experiments.scenarios import figure_rows

        def run(oracle_generated):
            generator(oracle_generated)
            return figure_rows(fig14_scenario(join_selectivities=(0.2,)),
                               SCALES["smoke"])

        assert run(False) == run(True)

    def test_engine_run_same_on_oracle_graph(self, generator):
        from repro.engine.execution import execute_run
        from repro.engine.spec import resolve_scale
        from repro.experiments.scenarios import resolve_scenario

        spec = next(
            s for s in resolve_scenario("scale-ladder-smoke").expand(
                resolve_scale("smoke"))
            if s.num_nodes == 1000 and s.algorithm == "base"
        )

        def run(oracle_generated):
            generator(oracle_generated)
            return execute_run(spec).report

        assert run(False) == run(True)
