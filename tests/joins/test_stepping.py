"""The shared-substrate stepping engine and the step_cycle refactor."""

import pytest

from repro.joins import JoinExecutor
from repro.joins.grouped_base import BaseJoin
from repro.joins.innet import InnetJoin, InnetVariant
from repro.joins.stepping import SharedSubstrateEngine
from repro.query.parser import parse_query
from tests.joins.conftest import make_workload


def _overlap_query(name, s_limit, t_floor, window=2):
    return parse_query(
        f"SELECT S.id, T.id FROM S, T [windowsize={window} sampleinterval=100] "
        f"WHERE S.id < {s_limit} AND T.id > {t_floor} "
        f"AND S.adc0 < 500 AND T.adc0 < 500 AND S.u = T.u",
        name=name,
    )


def _step(engine, cycles):
    for _ in range(cycles):
        engine.step_cycle()


class TestRunIdempotentInitiation:
    def test_run_twice_charges_initiation_once(
        self, topo_small, query1, default_selectivities
    ):
        data_source = make_workload(topo_small, query1, default_selectivities)
        executor = JoinExecutor(
            query1, topo_small.copy(), data_source,
            InnetJoin(InnetVariant.cm()), default_selectivities,
        )
        first = executor.run(5)
        assert first.initiation_traffic > 0
        second = executor.run(0)
        assert second.initiation_traffic == first.initiation_traffic
        # The second run added no initiation traffic on top of the first.
        assert second.total_traffic == first.total_traffic

    def test_run_cycles_then_run_is_one_initiation(
        self, topo_small, query1, default_selectivities
    ):
        data_source = make_workload(topo_small, query1, default_selectivities)
        reference = JoinExecutor(
            query1, topo_small.copy(), data_source, BaseJoin(),
            default_selectivities,
        )
        expected = reference.run(10)

        split = JoinExecutor(
            query1, topo_small.copy(), data_source, BaseJoin(),
            default_selectivities,
        )
        split.run_cycles(0, 4)
        split.run_cycles(4, 6)
        report = split.report(10)
        assert report.initiation_traffic == expected.initiation_traffic
        assert report.total_traffic == expected.total_traffic


class TestStepCycle:
    def test_manual_stepping_equals_run(
        self, topo_small, query1, default_selectivities
    ):
        data_source = make_workload(topo_small, query1, default_selectivities)
        reference = JoinExecutor(
            query1, topo_small.copy(), data_source,
            InnetJoin(InnetVariant.cmg()), default_selectivities,
        )
        expected = reference.run(12)

        stepped = JoinExecutor(
            query1, topo_small.copy(), data_source,
            InnetJoin(InnetVariant.cmg()), default_selectivities,
        )
        for cycle in range(12):
            stepped.step_cycle(cycle)
        report = stepped.report(12)
        assert report.total_traffic == expected.total_traffic
        assert report.base_traffic == expected.base_traffic
        assert report.results_delivered == expected.results_delivered


class TestSharedSubstrateEngine:
    def test_single_query_matches_batch_executor(
        self, topo_small, query1, default_selectivities, per_tuple_cycles
    ):
        data_source = make_workload(topo_small, query1, default_selectivities)
        reference = JoinExecutor(
            query1, topo_small.copy(), data_source,
            InnetJoin(InnetVariant.cmg()), default_selectivities,
        )
        with per_tuple_cycles():
            expected = reference.run(15)

        engine = SharedSubstrateEngine(
            topo_small.copy(), data_source, default_selectivities,
            share_shipments=False,
        )
        session = engine.attach(query1, InnetJoin(InnetVariant.cmg()))
        _step(engine, 15)
        assert engine.simulator.stats.total() == expected.total_traffic
        assert session.initiation_traffic == expected.initiation_traffic
        assert engine.reoptimizations == 0  # initiate-time decisions adopted

    def test_identical_queries_share_shipments(
        self, topo_small, default_selectivities
    ):
        query_a = _overlap_query("qa", 25, 50)
        query_b = _overlap_query("qb", 25, 50)
        data_source = make_workload(topo_small, query_a, default_selectivities)
        engine = SharedSubstrateEngine(
            topo_small.copy(), data_source, default_selectivities,
        )
        engine.attach(query_a, BaseJoin())
        engine.attach(query_b, BaseJoin())
        _step(engine, 10)
        stats = engine.stats()
        assert stats["shared_savings_units"] > 0
        assert stats["deduped_shipments"] > 0
        assert (
            stats["independent_traffic_estimate"]
            == stats["total_traffic"] + stats["shared_savings_units"]
        )

    def test_overlapping_queries_reoptimize_groups(
        self, topo_small, default_selectivities
    ):
        query_a = _overlap_query("qa", 25, 50)
        # Wider bands: fresh pairs that merge into qa's group via shared
        # endpoints, forcing an engine-level cross-query re-decision.
        query_b = _overlap_query("qb", 30, 45)
        data_source = make_workload(topo_small, query_a, default_selectivities)
        engine = SharedSubstrateEngine(
            topo_small.copy(), data_source, default_selectivities,
        )
        engine.attach(query_a, InnetJoin(InnetVariant.cmg()))
        before = engine.simulator.stats.total()
        engine.attach(query_b, InnetJoin(InnetVariant.cmg()))
        assert engine.reoptimizations > 0
        assert engine.reopt_latency.count == engine.reoptimizations
        assert engine.reopt_latency.quantile("p50") > 0
        # Re-deciding merged groups charged control traffic on the substrate.
        assert engine.simulator.stats.total() > before

    def test_detach_stops_execution_and_reoptimizes(
        self, topo_small, default_selectivities
    ):
        query_a = _overlap_query("qa", 25, 50)
        query_b = _overlap_query("qb", 20, 55)
        data_source = make_workload(topo_small, query_a, default_selectivities)
        engine = SharedSubstrateEngine(
            topo_small.copy(), data_source, default_selectivities,
        )
        session_a = engine.attach(query_a, InnetJoin(InnetVariant.cmg()))
        engine.attach(query_b, InnetJoin(InnetVariant.cmg()))
        _step(engine, 5)
        reopts_before = engine.reoptimizations
        engine.detach(session_a.query_id)
        assert not session_a.active
        assert engine.active_count == 1
        assert engine.reoptimizations > reopts_before  # groups split back
        produced_at_detach = session_a.strategy.results.produced
        _step(engine, 5)
        assert session_a.strategy.results.produced == produced_at_detach
        with pytest.raises(KeyError):
            engine.detach(session_a.query_id)

    def test_sessions_report(self, topo_small, query1, default_selectivities):
        data_source = make_workload(topo_small, query1, default_selectivities)
        engine = SharedSubstrateEngine(
            topo_small.copy(), data_source, default_selectivities,
        )
        session = engine.attach(query1, BaseJoin())
        facts = session.describe()
        assert facts["query_id"] == session.query_id
        assert facts["active"] is True
        assert engine.sessions(active_only=True) == [session]
        stats = engine.stats()
        assert stats["active_queries"] == 1
        assert stats["cycle"] == 0


class CountingSource:
    """Delegates to a SyntheticDataSource, counting columnar sample calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def sample_columns(self, node_ids, cycle):
        self.calls.append((tuple(node_ids), cycle))
        return self.inner.sample_columns(node_ids, cycle)

    def next_switch(self, cycle):
        return self.inner.next_switch(cycle)


class TestSharedSampling:
    def test_sensors_are_sampled_once_per_engine_cycle(
        self, topo_small, default_selectivities
    ):
        queries = [_overlap_query("qa", 25, 50), _overlap_query("qb", 20, 55),
                   _overlap_query("qc", 15, 60)]
        source = CountingSource(make_workload(topo_small, queries[0], default_selectivities))
        engine = SharedSubstrateEngine(topo_small.copy(), source, default_selectivities)
        sessions = [engine.attach(q, InnetJoin(InnetVariant.cmg())) for q in queries]
        _step(engine, 4)
        assert [cycle for _, cycle in source.calls] == [0, 1, 2, 3]
        union = sorted({n for s in sessions
                        for members in s.strategy.producers.values()
                        for n in members.key})
        assert all(nodes == tuple(union) for nodes, _ in source.calls)
        # a departure shrinks what is sampled, from the next cycle on
        engine.detach(sessions[0].query_id)   # the widest producer ranges
        _step(engine, 1)
        nodes, cycle = source.calls[-1]
        assert cycle == 4 and len(source.calls) == 5 and set(nodes) < set(union)

    def test_a_shared_sample_gives_each_query_its_own_results(
        self, topo_small, default_selectivities
    ):
        queries = [_overlap_query("qa", 25, 50), _overlap_query("qb", 20, 55)]
        data_source = make_workload(topo_small, queries[0], default_selectivities)
        engine = SharedSubstrateEngine(
            topo_small.copy(), data_source, default_selectivities,
            share_shipments=False,
        )
        sessions = [engine.attach(q, BaseJoin()) for q in queries]
        _step(engine, 8)
        for query, session in zip(queries, sessions):
            alone = JoinExecutor(query, topo_small.copy(), data_source, BaseJoin(),
                                 default_selectivities).run(8)
            assert session.strategy.results.produced == alone.results_produced > 0
