"""Cross-cutting integration tests: mesh mode, Intel workload, determinism."""

from repro.core import Selectivities
from repro.joins import GHTJoin, InnetJoin, InnetVariant, JoinExecutor, NaiveJoin
from repro.network.traffic import TrafficAccounting

from tests.joins.conftest import make_workload, run_strategy
from tests.workloads.sample_oracle import intel_query3_workload


class TestMeshMode:
    """Appendix F: the same strategies over an 802.11 mesh, counted in messages."""

    def test_mesh_accounting_preserves_orderings(self, topo100, query1):
        sel = Selectivities(0.5, 0.5, 0.05)
        reports = {}
        for name, strategy in (
            ("naive", NaiveJoin()),
            ("dht", GHTJoin(use_dht=True)),
            ("innet-cmg", InnetJoin(InnetVariant.cmg())),
        ):
            reports[name] = run_strategy(
                topo100, query1, strategy, sel, cycles=30,
                accounting=TrafficAccounting.MESSAGES,
            )
        assert reports["innet-cmg"].total_traffic < reports["dht"].total_traffic
        # All strategies compute the same join.
        assert (reports["naive"].results_produced
                == reports["innet-cmg"].results_produced)

    def test_message_counts_are_integers(self, topo_small, query1, default_selectivities):
        report = run_strategy(topo_small, query1, NaiveJoin(), default_selectivities,
                              cycles=5, accounting=TrafficAccounting.MESSAGES)
        assert report.total_traffic == int(report.total_traffic)


class TestIntelWorkloadIntegration:
    def test_learning_starts_at_base_and_migrates(self):
        """Figure 13's mechanism: with 100% initial estimates every pair joins
        at the base; learned estimates move join nodes into the network."""
        topology, data_source, query = intel_query3_workload(seed=4)
        pessimistic = Selectivities(1.0, 1.0, 1.0)
        strategy = InnetJoin(InnetVariant.learn())
        executor = JoinExecutor(query, topology.copy(), data_source, strategy, pessimistic)
        executor.initiate()
        table = strategy.plan.table
        assert (table.join == table.base_id).all()
        executor.run(60)
        assert strategy.reoptimizations > 0
        assert not (table.join == table.base_id).all()

    def test_trace_replay_is_deterministic(self):
        """Two strategies replaying the same Intel trace see identical data,
        so they produce identical join results (regression test for the
        stateful-noise bug)."""
        topology, data_source, query = intel_query3_workload(seed=5)
        sel = Selectivities(1.0, 1.0, 0.2)
        first = JoinExecutor(query, topology.copy(), data_source, NaiveJoin(), sel).run(20)
        second = JoinExecutor(query, topology.copy(), data_source,
                              InnetJoin(InnetVariant.cmg()), sel).run(20)
        assert first.results_produced == second.results_produced


class TestDeterminism:
    def test_same_seed_same_report(self, topo_small, query1, default_selectivities):
        first = run_strategy(topo_small, query1, InnetJoin(InnetVariant.cmpg()),
                             default_selectivities, cycles=15, seed=9)
        second = run_strategy(topo_small, query1, InnetJoin(InnetVariant.cmpg()),
                              default_selectivities, cycles=15, seed=9)
        assert first.total_traffic == second.total_traffic
        assert first.results_produced == second.results_produced
        assert first.base_traffic == second.base_traffic

    def test_different_seed_different_data(self, topo_small, query1, default_selectivities):
        first = run_strategy(topo_small, query1, NaiveJoin(), default_selectivities,
                             cycles=15, seed=1)
        second = run_strategy(topo_small, query1, NaiveJoin(), default_selectivities,
                              cycles=15, seed=2)
        assert first.results_produced != second.results_produced or (
            first.total_traffic != second.total_traffic
        )
