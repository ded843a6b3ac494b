"""Tests for the SQLite result store and the streaming batch writer."""

import json

import pytest

from repro.engine import SCALES, ResultStore, ScenarioSpec, StreamingWriter, execute_run
from repro.engine.store import report_from_dict, report_to_dict

SMOKE = SCALES["smoke"]


def _one_spec():
    scenario = ScenarioSpec(
        name="store-test", query="query1", algorithms=("naive",),
        data={"sigma_s": 0.5, "sigma_t": 0.5, "sigma_st": 0.2}, cycles=3,
    )
    return scenario.expand(SMOKE)[0]


class TestResultStore:
    def test_wal_mode(self, tmp_path):
        with ResultStore(tmp_path / "results.sqlite") as store:
            assert store.journal_mode() == "wal"

    def test_put_get_round_trip(self, tmp_path):
        spec = _one_spec()
        report = execute_run(spec).report
        with ResultStore(tmp_path / "results.sqlite") as store:
            key = store.put(spec, report)
            assert key == spec.run_key()
            assert key in store
            loaded = store.get(key)
        assert loaded == report
        assert loaded.top_loaded_nodes == report.top_loaded_nodes

    def test_completed_filters_known_keys(self, tmp_path):
        spec = _one_spec()
        report = execute_run(spec).report
        with ResultStore(tmp_path / "results.sqlite") as store:
            store.put(spec, report)
            assert store.completed([spec.run_key(), "missing"]) == {spec.run_key()}
            assert store.get("missing") is None

    def test_scenario_bookkeeping(self, tmp_path):
        spec = _one_spec()
        report = execute_run(spec).report
        with ResultStore(tmp_path / "results.sqlite") as store:
            store.put(spec, report)
            assert store.scenarios() == ["store-test"]
            assert store.scenario_run_count("store-test") == 1
            assert store.scenario_run_count("other") == 0

    def test_persists_across_connections(self, tmp_path):
        path = tmp_path / "results.sqlite"
        spec = _one_spec()
        report = execute_run(spec).report
        with ResultStore(path) as store:
            store.put(spec, report)
        with ResultStore(path) as store:
            assert store.get(spec.run_key()) == report

    def test_report_dict_round_trip(self):
        report = execute_run(_one_spec()).report
        assert report_from_dict(report_to_dict(report)) == report

    def test_report_stored_with_a_retired_field_loads(self):
        """Stores written while reports counted forwarding-queue drops carry
        a ``queue_drops`` key; such a report still loads."""
        report = execute_run(_one_spec()).report
        payload = json.loads(json.dumps(dict(report_to_dict(report), queue_drops=0)))
        assert report_from_dict(payload) == report

    def test_report_is_stored_without_the_retired_field(self):
        report = execute_run(_one_spec()).report
        assert "queue_drops" not in report_to_dict(report)
        assert "queue_drops" not in report.as_dict()

    def test_close_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "results.sqlite")
        assert not store.closed
        store.close()
        store.close()
        assert store.closed

    def test_flush_commits(self, tmp_path):
        with ResultStore(tmp_path / "results.sqlite") as store:
            store.flush()  # no open transaction: plain no-op commit


class TestStreamingWriter:
    def _spec_and_report(self):
        spec = _one_spec()
        return spec, execute_run(spec).report

    def test_flushes_at_count_threshold(self, tmp_path):
        spec, report = self._spec_and_report()
        with ResultStore(tmp_path / "results.sqlite") as store:
            writer = StreamingWriter(store, flush_every=2, flush_seconds=1e9)
            writer.add(spec, report)
            assert (writer.pending, writer.written) == (1, 0)
            assert spec.run_key() not in store
            writer.add(spec, report)  # same key: INSERT OR REPLACE, 2 writes
            assert (writer.pending, writer.written, writer.flushes) == (0, 2, 1)
            assert spec.run_key() in store

    def test_flushes_at_time_threshold(self, tmp_path, monkeypatch):
        import repro.engine.store as store_module

        clock = [0.0]
        monkeypatch.setattr(store_module.time, "monotonic", lambda: clock[0])
        spec, report = self._spec_and_report()
        with ResultStore(tmp_path / "results.sqlite") as store:
            writer = StreamingWriter(store, flush_every=100, flush_seconds=5.0)
            writer.add(spec, report)
            assert writer.pending == 1
            clock[0] = 6.0
            writer.add(spec, report)
            assert writer.pending == 0
            assert writer.written == 2

    def test_context_manager_flushes_remainder(self, tmp_path):
        spec, report = self._spec_and_report()
        with ResultStore(tmp_path / "results.sqlite") as store:
            with StreamingWriter(store, flush_every=100) as writer:
                writer.add(spec, report)
            assert writer.pending == 0
            assert spec.run_key() in store

    def test_empty_flush_is_a_noop(self, tmp_path):
        with ResultStore(tmp_path / "results.sqlite") as store:
            writer = StreamingWriter(store)
            writer.flush()
            assert (writer.written, writer.flushes) == (0, 0)

    def test_rejects_degenerate_windows(self, tmp_path):
        with ResultStore(tmp_path / "results.sqlite") as store:
            with pytest.raises(ValueError, match="flush_every"):
                StreamingWriter(store, flush_every=0)
            with pytest.raises(ValueError, match="flush_seconds"):
                StreamingWriter(store, flush_seconds=0)
