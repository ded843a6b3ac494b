"""Tests for the Innet strategy, its variants, learning and failure handling."""

import pytest

from repro.core import Selectivities
from repro.core.adaptive import AdaptivePolicy
from repro.engine.registry import make_strategy
from repro.joins import InnetJoin, InnetVariant, JoinExecutor, NaiveJoin
from repro.network.failures import FailureInjector
from repro.network.traffic import TrafficAccounting
from repro.workloads import build_query0

from tests.joins.conftest import in_network_pair, make_workload, run_strategy

#: the failure cycle of the kernel-premise runs
FAIL_AT = 17


class TestVariantLabels:
    def test_labels_match_paper_names(self):
        assert InnetVariant.basic().label == "innet"
        assert InnetVariant.cm().label == "innet-cm"
        assert InnetVariant.cmg().label == "innet-cmg"
        assert InnetVariant.cmp().label == "innet-cmp"
        assert InnetVariant.cmpg().label == "innet-cmpg"
        assert InnetVariant.learn().label == "innet-cmpg-learn"
        assert InnetVariant.learn(InnetVariant.basic()).label.endswith("-learn")


class TestPlacementAndPlan:
    def test_plan_covers_all_statically_joining_pairs(
        self, topo_small, query1, default_selectivities
    ):
        strategy = InnetJoin(InnetVariant.basic())
        run_strategy(topo_small, query1, strategy, default_selectivities, cycles=5)
        assert strategy.plan.pairs()
        for source, target in strategy.plan.pairs():
            s_attrs = topo_small.nodes[source].static_attributes
            t_attrs = topo_small.nodes[target].static_attributes
            assert s_attrs["x"] == t_attrs["y"] + 5

    def test_join_node_on_path_or_base(self, topo_small, query1, default_selectivities):
        strategy = InnetJoin(InnetVariant.basic())
        run_strategy(topo_small, query1, strategy, default_selectivities, cycles=2)
        for pair in strategy.plan.pairs():
            decision = strategy.plan.decision_for(pair)
            assert decision.expected_cost <= decision.base_cost + 1e-9

    def test_query0_single_pair(self, topo_small, default_selectivities):
        ids = [n for n in topo_small.node_ids if n != topo_small.base_id]
        query0 = build_query0(source_id=ids[0], target_id=ids[-1])
        strategy = InnetJoin(InnetVariant.basic())
        report = run_strategy(topo_small, query0, strategy, default_selectivities)
        assert strategy.plan.pairs() == [(ids[0], ids[-1])]
        assert report.join_nodes_used == 1


class TestVariantAblation:
    def test_multicast_never_increases_traffic(self, topo100, query2):
        sel = Selectivities(0.5, 0.5, 0.05)
        plain = run_strategy(topo100, query2, InnetJoin(InnetVariant.basic()), sel,
                             cycles=30)
        cm = run_strategy(topo100, query2, InnetJoin(InnetVariant.cm()), sel,
                          cycles=30)
        assert cm.total_traffic <= plain.total_traffic * 1.02

    def test_cmpg_not_worse_than_cmg(self, topo100, query2):
        """Figure 9: Innet-cmpg is never worse than Innet-cmg."""
        sel = Selectivities(0.5, 0.5, 0.1)
        cmg = run_strategy(topo100, query2, InnetJoin(InnetVariant.cmg()), sel,
                           cycles=30)
        cmpg = run_strategy(topo100, query2, InnetJoin(InnetVariant.cmpg()), sel,
                            cycles=30)
        assert cmpg.total_traffic <= cmg.total_traffic * 1.02

    def test_group_optimization_bounds_cost_by_base(
        self, topo100, query1, default_selectivities
    ):
        """GROUPOPT falls back to the base station when sharing makes the
        grouped join cheaper, so cmg cannot be much worse than Base-at-100-cycles."""
        cmg = run_strategy(topo100, query1, InnetJoin(InnetVariant.cmg()),
                           default_selectivities, cycles=30)
        naive = run_strategy(topo100, query1, NaiveJoin(),
                             default_selectivities, cycles=30)
        assert cmg.total_traffic < naive.total_traffic

    def test_all_variants_same_results(self, topo_small, query1, default_selectivities):
        counts = set()
        for variant in (InnetVariant.basic(), InnetVariant.cm(), InnetVariant.cmg(),
                        InnetVariant.cmpg(), InnetVariant.learn()):
            report = run_strategy(topo_small, query1, InnetJoin(variant),
                                  default_selectivities)
            counts.add(report.results_produced)
        assert len(counts) == 1


class TestAdaptiveLearning:
    def test_learning_recovers_from_bad_estimates(self, topo100, query1):
        """Figure 10: with wrong initial estimates, learning reduces traffic."""
        actual = Selectivities(0.1, 1.0, 0.05)
        wrong = Selectivities(1.0, 0.1, 0.05)
        policy = AdaptivePolicy(check_interval=10, min_cycles=10)
        without = run_strategy(
            topo100, query1,
            InnetJoin(InnetVariant.cmpg()), wrong, cycles=120,
            data_selectivities=actual,
        )
        with_learning = run_strategy(
            topo100, query1,
            InnetJoin(InnetVariant.learn(), adaptive_policy=policy), wrong, cycles=120,
            data_selectivities=actual,
        )
        assert with_learning.reoptimizations > 0
        assert with_learning.total_traffic < without.total_traffic

    def test_learning_overhead_small_with_correct_estimates(self, topo100, query1):
        """Figure 10: with correct estimates the learning overhead is small."""
        actual = Selectivities(0.5, 0.5, 0.2)
        plain = run_strategy(topo100, query1, InnetJoin(InnetVariant.cmpg()),
                             actual, cycles=60)
        learn = run_strategy(topo100, query1,
                             InnetJoin(InnetVariant.learn()), actual, cycles=60)
        assert learn.total_traffic <= plain.total_traffic * 1.35

    def test_window_transferred_on_migration(self, topo_small, query1):
        """Join-node migration ships the buffered window (Section 6)."""
        wrong = Selectivities(1.0, 0.1, 0.2)
        policy = AdaptivePolicy(check_interval=10, min_cycles=10)
        strategy = InnetJoin(InnetVariant.learn(InnetVariant.basic()),
                             adaptive_policy=policy)
        report = run_strategy(topo_small, query1, strategy, wrong, cycles=60)
        if report.reoptimizations:
            kinds = report.traffic_by_kind
            # Window transfers only happen when a join node actually moves;
            # nominations always accompany re-optimization.
            assert kinds.get("nominate", 0) > 0


class TestFailureHandling:
    def _relay_joined_pair(self, topo, selectivities):
        """From the node farthest from the base, the first node (by id) three
        hops away whose pair joins at a relay: in-network, at neither
        producer (failing a producer stops its results instead)."""
        far, _ = in_network_pair(topo)
        for target in sorted(topo.node_ids):
            if len(topo.shortest_path(far, target)) != 4:
                continue
            query = build_query0(source_id=far, target_id=target)
            data_source = make_workload(topo, query, selectivities)
            scout = InnetJoin(InnetVariant.basic())
            JoinExecutor(query, topo.copy(), data_source, scout, selectivities).initiate()
            pair = scout.plan.pairs()[0]
            join_node = scout.plan.decision_for(pair).join_node
            if join_node not in (far, target, topo.base_id):
                return query, data_source, pair, join_node
        raise AssertionError("no pair three hops from the farthest node joins at a relay")

    def test_join_node_failure_recovers_at_base(self, topo_small):
        sel = Selectivities(1.0, 1.0, 0.2)
        query, data_source, pair, join_node = self._relay_joined_pair(topo_small, sel)
        injector = FailureInjector()
        injector.schedule(join_node, sampling_cycle=10)
        strategy = InnetJoin(InnetVariant.basic())
        executor = JoinExecutor(
            query, topo_small.copy(), data_source, strategy, sel,
            failure_injector=injector,
        )
        report = executor.run(40)
        no_failure = JoinExecutor(
            query, topo_small.copy(), data_source, InnetJoin(InnetVariant.basic()), sel
        ).run(40)
        # The query keeps producing every result after the failure ...
        assert report.results_produced == no_failure.results_produced
        # ... the pair now joins at the base ...
        assert strategy.plan.decision_for(pair).at_base
        # ... and the recovery shows up as extra result delay (Figure 14a).
        assert report.average_result_delay_cycles >= no_failure.average_result_delay_cycles

    def test_producer_failure_stops_its_results(self, topo_small, query1):
        sel = Selectivities(1.0, 1.0, 0.2)
        strategy = InnetJoin(InnetVariant.basic())
        data_source = make_workload(topo_small, query1, sel)
        scout = InnetJoin(InnetVariant.basic())
        JoinExecutor(query1, topo_small.copy(), data_source, scout, sel).initiate()
        victim = scout.plan.pairs()[0][0]
        injector = FailureInjector()
        injector.schedule(victim, sampling_cycle=3)
        executor = JoinExecutor(
            query1, topo_small.copy(), data_source, strategy, sel,
            failure_injector=injector,
        )
        report = executor.run(10)
        assert report.results_produced >= 0
        assert not executor.topology.nodes[victim].alive


    @pytest.mark.parametrize("topo_name", ["topo_small", "topo100"])
    @pytest.mark.parametrize("algorithm", ["innet", "innet-cmg"])
    def test_no_kernel_cycle_at_or_after_the_first_failure(
        self, request, topo_name, algorithm, monkeypatch
    ):
        """A pair recovers only after a node fails, and the executor runs no
        cycle on the batch kernel from the first failure cycle on -- so
        ``execute_cycle_batch`` never sees a recovering pair."""
        topo = request.getfixturevalue(topo_name)
        sel = Selectivities(1.0, 1.0, 0.2)
        query = build_query0(*in_network_pair(topo))
        data_source = make_workload(topo, query, sel)
        scout = make_strategy(algorithm)
        JoinExecutor(query, topo.copy(), data_source, scout, sel).initiate()
        pair = scout.plan.pairs()[0]
        join_node = scout.plan.decision_for(pair).join_node
        assert join_node != topo.base_id
        injector = FailureInjector()
        injector.schedule(join_node, sampling_cycle=FAIL_AT)

        blocks = []
        batch = InnetJoin.execute_cycle_batch

        def recorded(self, ctx, cycles, batcher):
            blocks.append((cycles, bool(self._recovering)))
            batch(self, ctx, cycles, batcher)
        monkeypatch.setattr(InnetJoin, "execute_cycle_batch", recorded)
        strategy = make_strategy(algorithm)
        JoinExecutor(query, topo.copy(), data_source, strategy, sel,
                     accounting=TrafficAccounting.BYTES,
                     failure_injector=injector).run(40)
        assert blocks and blocks[-1][0].stop == FAIL_AT
        assert not any(recovering for _, recovering in blocks)
        # the failure did put the pair through recovery
        assert strategy.plan.decision_for(pair).at_base

class TestLearningBookkeeping:
    def test_learning_never_lists_the_plans_pairs(
        self, topo100, query1, monkeypatch
    ):
        """The plan's pair set is fixed after initiation: ``_learn`` reads
        the window rows it kept and re-decides the groups built at
        initiation, so no cycle -- between checks, on a check that changes
        nothing, or on one that re-places pairs -- lists the plan's pairs."""
        from repro.core.optimizer import JoinPlan

        policy = AdaptivePolicy(check_interval=10, min_cycles=10)
        strategy = InnetJoin(InnetVariant.learn(), adaptive_policy=policy)
        data_source = make_workload(topo100, query1, Selectivities(0.1, 1.0, 0.05))
        executor = JoinExecutor(query1, topo100.copy(), data_source, strategy,
                                Selectivities(1.0, 0.1, 0.05), seed=3)
        executor.initiate()
        scans = []
        pairs = JoinPlan.pairs
        monkeypatch.setattr(
            JoinPlan, "pairs", lambda plan: scans.append(cycle) or pairs(plan))
        reoptimized_at = set()
        for cycle in range(50):
            before = strategy.reoptimizations
            executor.step_cycle(cycle)
            if strategy.reoptimizations > before:
                reoptimized_at.add(cycle)
        assert reoptimized_at and reoptimized_at <= {10, 20, 30, 40}
        assert scans == []
