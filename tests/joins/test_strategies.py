"""Tests for the individual join strategies.

These tests run small end-to-end executions (20 cycles, 50-100 nodes) and
check result correctness, traffic accounting and the qualitative properties
the paper relies on.
"""

import pytest

from repro.core import Selectivities
from repro.joins import (
    BaseJoin,
    GHTJoin,
    InnetJoin,
    InnetVariant,
    JoinExecutor,
    NaiveJoin,
    ThroughBaseJoin,
)
from repro.workloads import build_query0, build_query3
from repro.workloads.intel import intel_query3_workload

from tests.joins.conftest import make_workload, run_strategy

ALL_STRATEGIES = [
    NaiveJoin,
    BaseJoin,
    GHTJoin,
    ThroughBaseJoin,
    lambda: InnetJoin(InnetVariant.basic()),
    lambda: InnetJoin(InnetVariant.cm()),
    lambda: InnetJoin(InnetVariant.cmg()),
    lambda: InnetJoin(InnetVariant.cmpg()),
]


class TestAllStrategiesAgree:
    @pytest.mark.parametrize("make_strategy", ALL_STRATEGIES)
    def test_query1_runs_and_produces_results(
        self, topo_small, query1, default_selectivities, make_strategy
    ):
        report = run_strategy(topo_small, query1, make_strategy(), default_selectivities)
        assert report.total_traffic > 0
        assert report.results_produced > 0
        assert report.base_traffic > 0
        assert report.max_node_load > 0
        assert report.cycles == 20

    def test_every_strategy_produces_the_same_join_results(
        self, topo_small, query1, default_selectivities
    ):
        """All algorithms compute the same windowed join, so (with loss-free
        links) they must produce essentially the same number of results.
        Through-the-base buffers target readings slightly differently within a
        cycle, so a 2 % tolerance absorbs the window-boundary effects."""
        counts = {}
        for make_strategy in ALL_STRATEGIES:
            strategy = make_strategy()
            report = run_strategy(topo_small, query1, strategy, default_selectivities)
            counts[strategy.name] = report.results_produced
        lowest, highest = min(counts.values()), max(counts.values())
        assert highest > 0
        assert (highest - lowest) <= 0.02 * highest, counts
        # Strategies that join at a single buffer location agree exactly.
        exact = {name: count for name, count in counts.items() if name != "yang07"}
        assert len(set(exact.values())) == 1, exact

    def test_query2_strategies_agree(self, topo_small, query2, default_selectivities):
        counts = set()
        for make_strategy in (NaiveJoin, BaseJoin,
                              lambda: InnetJoin(InnetVariant.cmpg())):
            report = run_strategy(topo_small, query2, make_strategy(), default_selectivities)
            counts.add(report.results_produced)
        assert len(counts) == 1


class TestNaiveAndBase:
    def test_naive_has_no_initiation(self, topo_small, query1, default_selectivities):
        report = run_strategy(topo_small, query1, NaiveJoin(), default_selectivities)
        assert report.initiation_traffic == 0.0
        assert report.join_nodes_used == 1

    def test_base_prefilters_producers(self, topo_small, query1, default_selectivities):
        naive = NaiveJoin()
        base = BaseJoin()
        run_strategy(topo_small, query1, naive, default_selectivities)
        run_strategy(topo_small, query1, base, default_selectivities)
        assert len(base.participating_producers("S")) <= len(
            naive.participating_producers("S")
        )
        # Query 1's x = y + 5 clause eliminates many S producers.
        assert len(base.participating_producers("S")) < len(
            naive.participating_producers("S")
        )

    def test_base_computation_cheaper_than_naive(
        self, topo_small, query1, default_selectivities
    ):
        naive = run_strategy(topo_small, query1, NaiveJoin(), default_selectivities)
        base = run_strategy(topo_small, query1, BaseJoin(), default_selectivities)
        assert base.computation_traffic < naive.computation_traffic
        assert base.initiation_traffic > 0

    def test_base_station_concentration(self, topo_small, query1, default_selectivities):
        """With grouped-at-base strategies the base is the most loaded node."""
        report = run_strategy(topo_small, query1, NaiveJoin(), default_selectivities)
        top_node, _ = report.top_loaded_nodes[0]
        assert top_node == topo_small.base_id


class TestGHT:
    def test_requires_static_join_key(self, topo_small, default_selectivities):
        query0 = build_query0(source_id=topo_small.node_ids[1],
                              target_id=topo_small.node_ids[-1])
        with pytest.raises(ValueError):
            run_strategy(topo_small, query0, GHTJoin(), default_selectivities)

    def test_uses_multiple_join_nodes(self, topo_small, query1, default_selectivities):
        strategy = GHTJoin()
        run_strategy(topo_small, query1, strategy, default_selectivities)
        assert strategy.join_nodes_used() >= 2

    def test_dht_variant_label(self, topo_small, query1, default_selectivities):
        strategy = GHTJoin(use_dht=True)
        report = run_strategy(topo_small, query1, strategy, default_selectivities)
        assert report.algorithm == "dht"
        assert report.results_produced > 0

    def test_ght_total_traffic_higher_than_innet_cmg(
        self, topo100, query1, default_selectivities
    ):
        """GHT routes over long hash paths; the paper finds it always poor."""
        ght = run_strategy(topo100, query1, GHTJoin(), default_selectivities, cycles=30)
        cmg = run_strategy(topo100, query1, InnetJoin(InnetVariant.cmg()),
                           default_selectivities, cycles=30)
        assert ght.total_traffic > cmg.total_traffic

    def test_region_query_ght_grouping(self):
        topo, data_source, query = intel_query3_workload(seed=3)
        strategy = GHTJoin()
        executor = JoinExecutor(
            query, topo.copy(), data_source, strategy, Selectivities(1.0, 1.0, 0.2)
        )
        report = executor.run(5)
        assert report.results_produced > 0


class TestThroughBase:
    def test_produces_results_and_traffic(self, topo_small, query1, default_selectivities):
        report = run_strategy(topo_small, query1, ThroughBaseJoin(), default_selectivities)
        assert report.results_produced > 0
        assert report.initiation_traffic == 0.0

    def test_reliable_links_drop_nothing(self, topo100, query1):
        """Section 4.2's routing-queue overflow is not modelled: on perfect
        links even a heavy through-base load loses no message."""
        sel = Selectivities(1.0, 1.0, 0.2)
        report = run_strategy(topo100, query1, ThroughBaseJoin(), sel, cycles=10)
        assert report.results_produced > 0
        assert report.messages_dropped == 0

    def test_heavier_than_base_near_the_sink(self, topo_small, query1, default_selectivities):
        yang = run_strategy(topo_small, query1, ThroughBaseJoin(), default_selectivities)
        base = run_strategy(topo_small, query1, BaseJoin(), default_selectivities)
        assert yang.total_traffic > base.total_traffic
