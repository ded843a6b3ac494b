"""ServiceEngine: admission, cancellation, stepping and live events."""

import pytest

from repro.query.parser import QueryParseError
from repro.service.engine import ServiceConfig, ServiceEngine

SQL = (
    "SELECT S.id, T.id FROM S, T [windowsize=2 sampleinterval=100] "
    "WHERE S.id < 10 AND T.id > 30 AND S.adc0 < 500 AND T.adc0 < 500 "
    "AND S.u = T.u"
)


@pytest.fixture()
def engine():
    return ServiceEngine(ServiceConfig(num_nodes=40))


class TestAdmission:
    def test_submit_step_cancel_lifecycle(self, engine):
        admitted = engine.submit(sql=SQL, name="q-life")
        assert admitted["query_id"] == 1
        assert admitted["initiation_traffic"] > 0
        engine.step(5)
        assert engine.cycle == 5
        status = engine.query_status(1)
        assert status["active"] is True
        assert status["attached_cycle"] == 0
        cancelled = engine.cancel(1)
        assert cancelled["cancelled_at_cycle"] == 5
        assert engine.query_status(1)["active"] is False
        assert engine.admitted == 1
        assert engine.cancelled == 1

    def test_submit_registered_query_name(self, engine):
        admitted = engine.submit(name="query1", algorithm="innet-cm")
        assert admitted["name"] == "query1"
        assert admitted["algorithm"] == "innet-cm"

    def test_submit_requires_sql_or_name(self, engine):
        with pytest.raises(QueryParseError):
            engine.submit()

    def test_cancel_unknown_query_raises(self, engine):
        with pytest.raises(KeyError):
            engine.cancel(99)

    def test_peak_concurrency_tracks_maximum(self, engine):
        first = engine.submit(sql=SQL, name="q-a")
        engine.submit(sql=SQL, name="q-b")
        engine.cancel(first["query_id"])
        engine.submit(sql=SQL, name="q-c")
        assert engine.peak_concurrency == 2
        assert engine.shared.active_count == 2

    def test_status_and_stats_shape(self, engine):
        engine.submit(sql=SQL, name="q-s")
        engine.step(3)
        status = engine.status()
        assert status["num_nodes"] == 40
        assert status["active_queries"] == 1
        assert len(status["queries"]) == 1
        stats = engine.stats()
        for key in (
            "cycle", "total_traffic", "base_traffic", "max_node_load",
            "shared_savings_units", "independent_traffic_estimate",
            "reoptimizations", "reopt_latency_p50", "admitted",
            "peak_concurrency",
        ):
            assert key in stats
        assert stats["total_traffic"] > 0


class TestLiveEvents:
    def test_fail_event_kills_node(self, engine):
        engine.submit(sql=SQL, name="q-f")
        victim = 17
        result = engine.apply_event(
            {"type": "fail", "node": victim, "in_cycles": 2}
        )
        assert result == {"event": "fail", "node": victim, "at_cycle": 2}
        engine.step(4)
        assert not engine.topology.nodes[victim].alive
        assert engine.events_applied == 1

    def test_move_event_relocates_node(self, engine):
        result = engine.apply_event({"type": "move", "node": 5, "radius": 0.3})
        assert result["event"] == "move"
        assert result["moved"] >= 1

    def test_drift_event_switches_data_source(self, engine):
        engine.submit(sql=SQL, name="q-d")
        engine.step(2)
        result = engine.apply_event({"type": "drift", "sigma_st": 0.05})
        assert result["switch_cycle"] == 2
        assert engine.data_source.switched is not None
        assert engine.data_source.switched.sigma_st == 0.05
        engine.step(2)  # keeps running on the drifted distribution

    def test_unknown_event_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.apply_event({"type": "reboot"})


class TestDetachedSessions:
    """A cancelled query keeps answering ``status`` with what it reported when
    it left; nothing it needed to run stays behind."""

    #: ``status()`` + ``stats()`` after the trace below, as answered at the
    #: parent commit of the live-session table (SHA-256 of the sorted JSON)
    TRACE_DIGEST = "8c91ce0ca261c8dd096fc81984d3181ca26dbafc5f0f80fe0d61b4cf6bac5a01"

    @staticmethod
    def _trace(engine):
        from repro.service.churn import churn_query

        for slot in range(4):
            name, sql = churn_query(slot, seed=0, num_nodes=60)
            engine.submit(sql=sql, name=name)
        engine.step(6)
        engine.cancel(2)
        cancelled = engine.query_status(2)
        engine.step(3)
        engine.cancel(4)
        engine.step(3)
        return cancelled

    def test_answers_are_unchanged_by_the_live_table(self):
        import hashlib
        import json

        engine = ServiceEngine(ServiceConfig(num_nodes=60, default_algorithm="innet-cmg"))
        cancelled = self._trace(engine)
        assert engine.query_status(2) == cancelled   # later cycles change nothing
        assert [q["query_id"] for q in engine.status()["queries"]] == [1, 2, 3, 4]
        assert engine.status()["active_queries"] == 2
        answers = json.dumps({"status": engine.status(), "stats": engine.stats()},
                             sort_keys=True)
        assert hashlib.sha256(answers.encode()).hexdigest() == self.TRACE_DIGEST

    def test_a_detached_session_holds_no_execution_state(self):
        engine = ServiceEngine(ServiceConfig(num_nodes=60, default_algorithm="innet-cmg"))
        self._trace(engine)
        shared = engine.shared
        assert [s.query_id for s in shared.sessions(active_only=True)] == [1, 3]
        for query_id in (2, 4):
            session = shared.session(query_id)
            assert session.context is None
            assert set(vars(session.strategy)) <= {
                "name", "results", "storage_peak", "reoptimizations"}
            assert session.describe()["results_produced"] == session.strategy.results.produced
        live = shared.session(1).strategy
        assert live.windows is not None and len(live.plan.table)


class TestShipmentSharing:
    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the shipment plane keys a DATA shipment on (path, size), "
        "so two producers' readings crossing one multicast tree edge in a cycle "
        "count as one transmission; ROADMAP item 8 keys tree edges by origin "
        "producer"))
    def test_lone_session_dedupes_nothing(self):
        from repro.service.churn import churn_query

        engine = ServiceEngine(ServiceConfig(
            num_nodes=100, topology_seed=0, seed=0, default_algorithm="innet-cmg"))
        name, sql = churn_query(0, seed=0, num_nodes=100)
        engine.submit(sql=sql, name=name)
        engine.step(10)
        stats = engine.stats()
        # one query has no other query to share a transmission with
        assert stats["deduped_shipments"] == 0
        assert stats["shared_savings_units"] == 0.0


class TestAdmissionCharges:
    """Admission and re-decision charge through one batch each, never one
    ``transfer`` per message (all nodes alive)."""

    @pytest.mark.parametrize("algorithm", [
        "innet-cmg", "innet-cmpg", "innet", "innet-learn", "base",
    ])
    def test_no_admission_path_calls_transfer(self, algorithm, monkeypatch):
        from repro.service.churn import churn_query

        engine = ServiceEngine(ServiceConfig(num_nodes=60))
        simulator = engine.shared.simulator
        calls = []
        transfer = simulator.transfer
        monkeypatch.setattr(simulator, "transfer",
                            lambda *args, **kwargs: calls.append(args) or transfer(
                                *args, **kwargs))
        ids = []
        for slot in range(4):
            name, sql = churn_query(slot, 0, 60)
            before = simulator.stats.total()
            ids.append(engine.submit(sql=sql, name=name, algorithm=algorithm)["query_id"])
            assert simulator.stats.total() > before
        engine.cancel(ids[1])
        engine.cancel(ids[0])
        assert calls == []
        if algorithm == "innet-cmg":
            assert engine.stats()["reoptimizations"] > 0
