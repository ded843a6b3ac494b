"""Tests for adaptive selectivity learning and the centralized baseline."""

import pytest

from repro.core import (
    AdaptivePolicy,
    PairObservation,
    Selectivities,
    centralized_initiation,
    optimal_pair_placements,
)
from repro.core.adaptive import LearningState
from repro.core.centralized import (
    CentralizedOptimizer,
    distributed_initiation_latency,
)
from repro.core.cost_model import innet_pair_cost
from repro.network import NetworkSimulator
from repro.network.topology import random_topology


class TestPairObservation:
    def test_validation(self):
        with pytest.raises(ValueError):
            PairObservation(window_size=0)

    def test_estimate_none_before_observation(self):
        assert PairObservation(window_size=3).estimate() is None

    def test_estimates_match_formulas(self):
        obs = PairObservation(window_size=3)
        for _ in range(10):
            obs.record_cycle()
        obs.record_source_tuple(5)
        obs.record_target_tuple(10)
        obs.record_results(9)
        estimate = obs.estimate()
        assert estimate.selectivities.sigma_s == pytest.approx(0.5)
        assert estimate.selectivities.sigma_t == pytest.approx(1.0)
        # sigma_st = N_st / (w * (N_s + N_t)) = 9 / (3 * 15)
        assert estimate.selectivities.sigma_st == pytest.approx(0.2)
        assert estimate.observed_cycles == 10

    def test_estimates_clamped_to_one(self):
        obs = PairObservation(window_size=1)
        obs.record_cycle()
        obs.record_source_tuple(5)
        obs.record_results(100)
        estimate = obs.estimate()
        assert estimate.selectivities.sigma_s == 1.0
        assert estimate.selectivities.sigma_st == 1.0

    def test_reset(self):
        obs = PairObservation(window_size=1)
        obs.record_cycle()
        obs.record_source_tuple()
        obs.reset()
        assert obs.estimate() is None


class TestAdaptivePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(divergence_threshold=0.0)
        with pytest.raises(ValueError):
            AdaptivePolicy(check_interval=0)

    def test_check_and_reset_cycles(self):
        policy = AdaptivePolicy(check_interval=10, reset_interval=50)
        assert policy.is_check_cycle(10)
        assert not policy.is_check_cycle(11)
        assert not policy.is_check_cycle(0)
        assert policy.is_reset_cycle(50)
        assert not policy.is_reset_cycle(49)

    def _estimate(self, s, t, st, cycles=20):
        obs = PairObservation(window_size=1)
        for _ in range(cycles):
            obs.record_cycle()
        obs.record_source_tuple(int(s * cycles))
        obs.record_target_tuple(int(t * cycles))
        received = int(s * cycles) + int(t * cycles)
        obs.record_results(int(st * received))
        return obs.estimate()

    def test_trigger_on_divergence(self):
        policy = AdaptivePolicy(divergence_threshold=0.33, min_cycles=5)
        current = Selectivities(0.1, 1.0, 0.2)
        diverged = self._estimate(1.0, 0.1, 0.2)
        assert policy.should_reoptimize(current, diverged)

    def test_no_trigger_when_close(self):
        policy = AdaptivePolicy(divergence_threshold=0.33, min_cycles=5)
        current = Selectivities(0.5, 0.5, 0.2)
        close = self._estimate(0.5, 0.5, 0.2)
        assert not policy.should_reoptimize(current, close)

    def test_no_trigger_without_confidence(self):
        policy = AdaptivePolicy(min_cycles=50)
        current = Selectivities(0.1, 1.0, 0.2)
        estimate = self._estimate(1.0, 0.1, 0.9, cycles=10)
        assert not policy.should_reoptimize(current, estimate)

    def test_learning_state_updates(self):
        policy = AdaptivePolicy(divergence_threshold=0.33, check_interval=5,
                                reset_interval=20, min_cycles=3)
        state = LearningState(current=Selectivities(0.1, 0.1, 0.0), window_size=1)
        updated = None
        for cycle in range(1, 11):
            state.observation.record_cycle()
            state.observation.record_source_tuple()
            state.observation.record_target_tuple()
            state.observation.record_results(1)
            result = state.maybe_update(policy, cycle)
            updated = result or updated
        assert updated is not None
        assert state.reoptimizations >= 1
        assert state.current.sigma_s > 0.5


class TestCentralized:
    @pytest.fixture(scope="class")
    def topo(self):
        return random_topology(num_nodes=50, average_degree=7, seed=13)

    def test_centralized_congests_base(self, topo):
        sim = NetworkSimulator(topo)
        report = centralized_initiation(topo, involved_nodes=topo.node_ids[:10],
                                        simulator=sim)
        assert report.collection_traffic > 0
        assert report.distribution_traffic > 0
        assert report.traffic_at_base > 0
        assert report.total_traffic == pytest.approx(
            report.collection_traffic + report.distribution_traffic
        )

    def test_centralized_latency_exceeds_distributed(self, topo):
        """Figure 6b: centralized initiation has several times the latency."""
        report = centralized_initiation(topo, involved_nodes=topo.node_ids[:10])
        ids = topo.node_ids
        pairs = [(ids[i], ids[-1 - i]) for i in range(10)]
        distributed = distributed_initiation_latency(topo, pairs)
        assert report.latency_cycles > 2 * distributed

    def test_optimal_placement_is_lower_bound(self, topo):
        sel = Selectivities(1.0, 0.5, 0.1)
        pairs = [(topo.node_ids[2], topo.node_ids[-3])]
        optimal = optimal_pair_placements(topo, pairs, sel, window_size=2)
        join_node, cost = optimal[pairs[0]]
        # No other node beats the optimum (true shortest-path distances).
        source, target = pairs[0]
        for candidate in topo.node_ids[::5]:
            other = innet_pair_cost(
                sel, 2, topo.hops_between(source, candidate),
                topo.hops_between(target, candidate),
                topo.hops_between(candidate, topo.base_id),
            )
            assert cost <= other + 1e-9

    def test_optimal_skips_dead_nodes(self, topo):
        sel = Selectivities(1.0, 1.0, 0.0)
        optimizer = CentralizedOptimizer(topo.copy())
        source, target = topo.node_ids[2], topo.node_ids[-3]
        join_node, _ = optimizer.optimal_join_node(source, target, sel, 1)
        optimizer.topology.nodes[join_node].fail()
        new_join, _ = optimizer.optimal_join_node(source, target, sel, 1)
        assert new_join != join_node
