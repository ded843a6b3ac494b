"""Tests for the execution engine and its report."""

import pytest

from repro.core import Selectivities
from repro.joins import InnetJoin, InnetVariant, JoinExecutor, NaiveJoin
from repro.network.links import lossy_links
from repro.network.traffic import TrafficAccounting
from repro.workloads import build_query1

from tests.joins.conftest import make_workload


class TestExecutor:
    def test_negative_cycles_rejected(self, topo_small, query1, default_selectivities):
        data_source = make_workload(topo_small, query1, default_selectivities)
        executor = JoinExecutor(query1, topo_small.copy(), data_source, NaiveJoin(),
                                default_selectivities)
        with pytest.raises(ValueError):
            executor.run(-1)

    def test_zero_cycles_runs_initiation_only(self, topo_small, query1, default_selectivities):
        data_source = make_workload(topo_small, query1, default_selectivities)
        strategy = InnetJoin(InnetVariant.basic())
        executor = JoinExecutor(query1, topo_small.copy(), data_source, strategy,
                                default_selectivities)
        report = executor.run(0)
        assert report.cycles == 0
        assert report.initiation_traffic > 0
        assert report.computation_traffic == pytest.approx(0.0)
        assert report.results_produced == 0

    def test_initiate_idempotent(self, topo_small, query1, default_selectivities):
        data_source = make_workload(topo_small, query1, default_selectivities)
        executor = JoinExecutor(query1, topo_small.copy(), data_source,
                                InnetJoin(InnetVariant.basic()), default_selectivities)
        first = executor.initiate()
        second = executor.initiate()
        assert first == second

    def test_report_consistency(self, topo_small, query1, default_selectivities):
        data_source = make_workload(topo_small, query1, default_selectivities)
        executor = JoinExecutor(query1, topo_small.copy(), data_source, NaiveJoin(),
                                default_selectivities)
        report = executor.run(15)
        assert report.total_traffic == pytest.approx(
            report.initiation_traffic + report.computation_traffic
        )
        assert report.results_delivered <= report.results_produced
        assert len(report.top_loaded_nodes) <= 15
        as_dict = report.as_dict()
        assert as_dict["algorithm"] == "naive"
        assert as_dict["total_traffic"] == report.total_traffic

    def test_traffic_grows_with_cycles(self, topo_small, query1, default_selectivities):
        data_source = make_workload(topo_small, query1, default_selectivities)
        short = JoinExecutor(query1, topo_small.copy(), data_source, NaiveJoin(),
                             default_selectivities).run(5)
        long = JoinExecutor(query1, topo_small.copy(), data_source, NaiveJoin(),
                            default_selectivities).run(25)
        assert long.total_traffic > short.total_traffic
        assert long.results_produced > short.results_produced

    def test_message_accounting_mode(self, topo_small, query1, default_selectivities):
        data_source = make_workload(topo_small, query1, default_selectivities)
        bytes_report = JoinExecutor(query1, topo_small.copy(), data_source, NaiveJoin(),
                                    default_selectivities).run(5)
        msg_report = JoinExecutor(
            query1, topo_small.copy(), data_source, NaiveJoin(), default_selectivities,
            accounting=TrafficAccounting.MESSAGES,
        ).run(5)
        # Messages are far fewer than bytes for the same workload.
        assert msg_report.total_traffic < bytes_report.total_traffic
        assert msg_report.results_produced == bytes_report.results_produced

    def test_lossy_links_drop_messages(self, topo_small, query1, default_selectivities):
        data_source = make_workload(topo_small, query1, default_selectivities)
        lossless = JoinExecutor(query1, topo_small.copy(), data_source, NaiveJoin(),
                                default_selectivities).run(10)
        lossy = JoinExecutor(
            query1, topo_small.copy(), data_source, NaiveJoin(), default_selectivities,
            link_model=lossy_links(0.3, seed=1, max_retransmissions=0),
        ).run(10)
        assert lossy.messages_dropped > 0
        assert lossy.results_produced <= lossless.results_produced

    def test_retransmissions_increase_traffic(self, topo_small, query1, default_selectivities):
        data_source = make_workload(topo_small, query1, default_selectivities)
        lossless = JoinExecutor(query1, topo_small.copy(), data_source, NaiveJoin(),
                                default_selectivities).run(10)
        retransmitting = JoinExecutor(
            query1, topo_small.copy(), data_source, NaiveJoin(), default_selectivities,
            link_model=lossy_links(0.3, seed=1, max_retransmissions=5),
        ).run(10)
        assert retransmitting.total_traffic > lossless.total_traffic

    def test_selectivity_provider_callable(self, topo_small, query1, default_selectivities):
        data_source = make_workload(topo_small, query1, default_selectivities)
        calls = []

        def provider(pair):
            calls.append(pair)
            return default_selectivities

        executor = JoinExecutor(query1, topo_small.copy(), data_source,
                                InnetJoin(InnetVariant.basic()), provider)
        executor.run(2)
        assert calls


class TestEligibleProducers:
    def _context(self, topo, query, selectivities):
        data_source = make_workload(topo, query, selectivities)
        return JoinExecutor(query, topo.copy(), data_source, NaiveJoin(),
                            selectivities).context

    def test_static_selection_is_resolved_once_per_alias(
        self, topo_small, query1, default_selectivities, monkeypatch
    ):
        context = self._context(topo_small, query1, default_selectivities)
        resolved = []
        resolve = type(context.analysis)._compiled_selection
        monkeypatch.setattr(
            type(context.analysis), "_compiled_selection",
            lambda self, cache, alias, clauses:
                resolved.append(alias) or resolve(self, cache, alias, clauses))
        eligible = context.eligible_producers("S")
        assert resolved == ["S"]                 # not once per node
        assert eligible == [
            n for n in topo_small.node_ids
            if n != topo_small.base_id
            and context.analysis.node_eligible("S", topo_small.nodes[n].static_attributes)
        ]

    def test_a_node_missing_a_selected_attribute_is_not_eligible(
        self, topo_small, query2, default_selectivities
    ):
        context = self._context(topo_small, query2, default_selectivities)   # S.rid = 0
        before = context.eligible_producers("S")
        assert before
        del context.topology.nodes[before[0]].static_attributes["rid"]
        assert context.eligible_producers("S") == before[1:]
