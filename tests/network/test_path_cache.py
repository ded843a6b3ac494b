"""Correctness of the routing/transport performance layer.

The PathCache must be invalidated by every topology mutation (link surgery,
node death/recovery, moves), the vectorized transfer must produce traffic
statistics bit-identical to the per-hop reference rule on perfect links, and
the figure experiments must produce the same results with routing queries
answered by the cache as by the scalar BFS of ``topology_oracle``.
"""

import pytest

from repro.network.failures import FailureInjector
from repro.network.links import LinkModel, lossy_links, perfect_links
from repro.network.message import MessageKind
from repro.network.mobility import is_leaf, move_leaf_node
from repro.network.simulator import NetworkSimulator
from repro.network.topology import PathCache, Topology, grid_topology, random_topology
from repro.network.traffic import TrafficStats
from tests.network import topology_oracle as oracle
from tests.network.transport_oracle import expected_attempts, per_hop_transfer


def fresh_copy(topology: Topology) -> Topology:
    """A cold-cache clone used as the uncached reference."""
    return topology.copy()


@pytest.fixture
def topo():
    return random_topology(num_nodes=40, average_degree=7.0, seed=7)


class TestPathCacheEquivalence:
    def test_cached_queries_match_cold_copy(self, topo):
        # Warm the cache with a first round of queries, then compare every
        # result against a cold topology and against the scalar oracle BFS.
        nodes = topo.node_ids
        for source in nodes[::5]:
            topo.shortest_hops_view(source)
        cold = fresh_copy(topo)
        adjacency, alive = oracle.dict_adjacency(topo), oracle.alive_ids(topo)
        for source in nodes[::5]:
            assert topo.shortest_hops_view(source) == cold.shortest_hops_view(source)
            assert topo.shortest_hops_view(source) == \
                oracle.bfs_tables(adjacency, alive, source)[0]
            assert topo.neighbors(source) == \
                oracle.alive_rows(adjacency, alive)[source]
            for target in nodes[::3]:
                assert topo.shortest_path(source, target) == \
                    cold.shortest_path(source, target)
                assert topo.hops_between(source, target) == \
                    cold.hops_between(source, target)

    def test_hops_between_matches_path_length(self, topo):
        for source in topo.node_ids[::7]:
            for target in topo.node_ids[::4]:
                path = topo.shortest_path(source, target)
                hops = topo.hops_between(source, target)
                assert hops == (None if path is None else len(path) - 1)

    def test_shortest_hops_view_is_served_from_the_cache(self, topo):
        base = topo.base_id
        first = topo.shortest_hops_view(base)
        assert topo.shortest_hops_view(base) is first
        victim = next(n for n in topo.node_ids if n != base)
        topo.nodes[victim].fail()
        fresh = topo.shortest_hops_view(base)
        assert fresh is not first
        assert victim in first and victim not in fresh


class TestInvalidation:
    def test_direct_node_fail_invalidates(self, topo):
        base = topo.base_id
        victim = next(n for n in topo.node_ids if n != base)
        before = topo.routing_epoch
        topo.shortest_hops_view(base)  # warm
        topo.nodes[victim].fail()
        assert topo.routing_epoch > before
        assert victim not in topo.shortest_hops_view(base)
        assert all(victim not in topo.neighbors(n) for n in topo.node_ids)
        oracle.recover(topo.nodes[victim])
        assert victim in topo.shortest_hops_view(base)

    def test_failure_injector_recomputes_paths(self, topo):
        base = topo.base_id
        far = max(topo.shortest_hops_view(base), key=lambda n: topo.shortest_hops_view(base)[n])
        old_path = topo.shortest_path(far, base)
        victim = old_path[len(old_path) // 2]
        injector = FailureInjector()
        injector.schedule(victim, sampling_cycle=0)
        assert injector.apply(topo, 0) == [victim]
        reference = fresh_copy(topo)
        new_path = topo.shortest_path(far, base)
        assert new_path == reference.shortest_path(far, base)
        if new_path is not None:
            assert victim not in new_path
        assert topo.shortest_hops_view(far) == reference.shortest_hops_view(far)

    def test_mobility_rebuild_recomputes_paths(self):
        topo = grid_topology(num_nodes=36)
        leaf = next(
            n for n in reversed(topo.node_ids)
            if n != topo.base_id and len(topo.neighbors(n)) >= 3
        )
        topo.shortest_hops_view(topo.base_id)  # warm
        before = topo.routing_epoch
        # Manual link surgery (what move_leaf_node performs) must invalidate.
        topo.remove_links_of(leaf)
        assert topo.routing_epoch > before
        assert topo.neighbors(leaf) == []
        assert leaf not in topo.shortest_hops_view(topo.base_id)
        topo.rebuild_links_of(leaf)
        reference = fresh_copy(topo)
        assert topo.shortest_hops_view(topo.base_id) == reference.shortest_hops_view(topo.base_id)

    def test_move_leaf_node_keeps_cache_fresh(self):
        topo = random_topology(num_nodes=40, average_degree=8.0, seed=3)
        mobile = next(
            n for n in reversed(topo.node_ids)
            if n != topo.base_id and is_leaf(topo, n)
        )
        topo.shortest_hops_view(topo.base_id)  # warm
        x, y = topo.nodes[mobile].position
        event = move_leaf_node(topo, mobile, (x + topo.radio_range / 3, y))
        reference = fresh_copy(topo)
        assert topo.neighbors(mobile) == reference.neighbors(mobile)
        assert topo.shortest_path(mobile, topo.base_id) == \
            reference.shortest_path(mobile, topo.base_id)
        assert event.node_id == mobile


class TestTransportEquivalence:
    def _run_traffic(self, fast: bool, link_model=None) -> TrafficStats:
        topo = grid_topology(num_nodes=49)
        simulator = NetworkSimulator(
            topo, link_model=link_model or perfect_links()
        )
        if fast:
            transfer = simulator.transfer
        else:
            def transfer(path, size_bytes, kind):
                return per_hop_transfer(simulator, path, size_bytes, kind)
        base = topo.base_id
        for node in topo.node_ids:
            path = topo.shortest_path(node, base)
            transfer(path, 24, MessageKind.DATA)
            transfer(list(reversed(path)), 13, MessageKind.CONTROL)
        for node in topo.node_ids:
            simulator.broadcast(node, 13, MessageKind.CONTROL)
        for node in topo.node_ids[::5]:
            simulator.broadcast(node, 11, MessageKind.TREE_MAINT)
        # A path through a dead node must charge identically in both modes.
        victim = next(n for n in topo.node_ids if n != base)
        witness = topo.neighbors(victim)[0]
        topo.nodes[victim].fail()
        transfer([witness, victim, base], 24, MessageKind.DATA)
        return simulator.stats

    def test_fast_and_slow_paths_bit_identical_on_perfect_links(self):
        fast = self._run_traffic(fast=True)
        slow = self._run_traffic(fast=False)
        assert dict(fast.transmitted) == dict(slow.transmitted)
        assert dict(fast.received) == dict(slow.received)
        assert dict(fast.by_kind) == dict(slow.by_kind)
        assert fast.messages_sent == slow.messages_sent
        assert fast.messages_dropped == slow.messages_dropped

    def test_broadcast_never_charges_dead_neighbours(self):
        topo = grid_topology(num_nodes=25)
        simulator = NetworkSimulator(topo)
        centre = topo.base_id
        victim = topo.neighbors(centre)[0]
        topo.nodes[victim].fail()
        heard = simulator.broadcast(centre, 10, MessageKind.CONTROL)
        assert victim not in heard
        assert simulator.stats.received.get(victim, 0.0) == 0.0
        assert simulator.stats.at_node(victim) == 0.0

    def test_batched_lossy_sampling_matches_analytic_mean(self):
        model = lossy_links(0.3, seed=11, max_retransmissions=3)
        delivered, attempts = model.attempt_hops(200_000)
        assert attempts.min() >= 1 and attempts.max() <= 4
        assert abs(attempts.mean() - expected_attempts(model)) < 0.02
        # Truncated-geometric failure probability: p_loss ** (R + 1).
        assert abs((~delivered).mean() - 0.3 ** 4) < 0.005

    def test_lossy_fast_transport_is_deterministic_per_seed(self):
        def run():
            topo = grid_topology(num_nodes=25)
            sim = NetworkSimulator(topo, link_model=lossy_links(0.2, seed=5))
            for node in topo.node_ids:
                sim.transfer(topo.shortest_path(node, topo.base_id), 24)
            return sim.stats.total(), sim.stats.messages_dropped

        assert run() == run()


def _oracle_routing(monkeypatch):
    """Answer every routing query with the oracle's scalar BFS over the
    topology as it stands: every PathCache table (hop vectors, hop counts,
    paths, hop dicts) is built from ``PathCache._bfs``, which is replaced
    by an unmemoised oracle BFS."""
    def bfs(cache, source):
        topology = cache._topology
        hop_table, parent_table = oracle.bfs_tables(
            oracle.dict_adjacency(topology), oracle.alive_ids(topology), source)
        hops = [-1] * topology.num_nodes
        parents = [-1] * topology.num_nodes
        for node_id, hop in hop_table.items():
            hops[node_id] = hop
            parents[node_id] = parent_table[node_id]
        return hops, parents, list(hop_table)

    monkeypatch.setattr(PathCache, "_bfs", bfs)


class TestExperimentEquivalence:
    """Fig 14 / App G produce the same rows with routing queries answered
    by the cache and, with the cache disabled, by the oracle BFS."""

    def _run_fig14(self):
        from repro.engine import SCALES, reset_workload_caches
        from repro.experiments.figures_adaptive import fig14_scenario
        from repro.experiments.scenarios import figure_rows

        reset_workload_caches()
        return figure_rows(fig14_scenario(join_selectivities=(0.2,)),
                           SCALES["smoke"])

    def _run_appg(self):
        from repro.engine import SCALES, reset_workload_caches
        from repro.experiments.figures_substrate import appg_scenario
        from repro.experiments.scenarios import figure_rows

        reset_workload_caches()
        return figure_rows(appg_scenario(num_moves=1), SCALES["smoke"])

    def test_fig14_failure_same_with_cache_disabled(self, monkeypatch):
        with_cache = self._run_fig14()
        _oracle_routing(monkeypatch)
        assert self._run_fig14() == with_cache

    def test_appg_mobility_same_with_cache_disabled(self, monkeypatch):
        with_cache = self._run_appg()
        _oracle_routing(monkeypatch)
        assert self._run_appg() == with_cache
