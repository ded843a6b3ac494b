"""Persistent, spec-hash-keyed result store backed by SQLite.

Every completed run is stored under its :meth:`RunSpec.run_key` content hash,
so re-invoking a sweep skips everything that already ran -- paper-scale
sweeps become resumable and interruptible.  The database uses WAL journaling
(concurrent readers while the single writer -- the sweep driver process --
appends) and ``synchronous=NORMAL``, the standard durable-enough setting for
a derived-results cache.

Crash safety comes from :class:`StreamingWriter`: the sweep executor hands it
every ``(RunSpec, report)`` pair *as it arrives* and the writer commits the
buffer whenever it holds ``flush_every`` results or ``flush_seconds`` have
passed -- so an interrupt or worker crash loses at most one flush window,
and a resumed invocation re-executes only the remainder.

Runs instrumented with metric sinks (see :mod:`repro.metrics`) additionally
persist their per-node series -- per-node energy, per-node load -- into the
normalized ``run_node_metrics`` table, queryable via
:meth:`ResultStore.node_metrics` (or plain SQL) without decoding report
JSON.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import fields
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Union

from repro.engine.spec import RunSpec
from repro.joins.base import ExecutionReport

_SCHEMA = """
CREATE TABLE IF NOT EXISTS run_results (
    run_key     TEXT PRIMARY KEY,
    scenario    TEXT NOT NULL,
    algorithm   TEXT NOT NULL,
    run_index   INTEGER NOT NULL,
    spec_json   TEXT NOT NULL,
    report_json TEXT NOT NULL,
    created_at  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS run_results_scenario ON run_results (scenario);
CREATE TABLE IF NOT EXISTS run_node_metrics (
    run_key   TEXT NOT NULL,
    scenario  TEXT NOT NULL,
    algorithm TEXT NOT NULL,
    sink      TEXT NOT NULL,
    series    TEXT NOT NULL,
    node_id   INTEGER NOT NULL,
    value     REAL NOT NULL,
    PRIMARY KEY (run_key, sink, series, node_id)
);
CREATE INDEX IF NOT EXISTS run_node_metrics_scenario
    ON run_node_metrics (scenario, series);
"""


_REPORT_FIELDS = frozenset(field.name for field in fields(ExecutionReport))


def report_to_dict(report: ExecutionReport) -> Dict:
    payload = dict(report.__dict__)
    payload["top_loaded_nodes"] = [list(item) for item in report.top_loaded_nodes]
    return payload


def report_from_dict(payload: Dict) -> ExecutionReport:
    # a report stored before one of its fields was retired still loads
    data = {key: value for key, value in payload.items() if key in _REPORT_FIELDS}
    data["top_loaded_nodes"] = [
        (int(node), float(load)) for node, load in data.get("top_loaded_nodes", [])
    ]
    # JSON stringifies the integer node ids of instrumentation series
    data["node_series"] = {
        key: {int(node): float(value) for node, value in mapping.items()}
        for key, mapping in (data.get("node_series") or {}).items()
    }
    return ExecutionReport(**data)


def _node_metric_rows(run_key: str, spec: RunSpec, report: ExecutionReport):
    """Normalized (per-node series) rows for the ``run_node_metrics`` table."""
    for key, mapping in report.node_series.items():
        sink, _, series = key.partition(".")
        series = series or sink
        for node_id, value in mapping.items():
            yield (run_key, spec.scenario, spec.algorithm, sink, series,
                   int(node_id), float(value))


class ResultStore:
    """SQLite-backed store of completed run reports, keyed by spec hash."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._connection = sqlite3.connect(str(self.path))
        self._closed = False
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA synchronous=NORMAL")
        self._connection.execute("PRAGMA foreign_keys=ON")
        self._connection.executescript(_SCHEMA)
        self._connection.commit()

    # -- context management -------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def flush(self) -> None:
        """Commit any open transaction (put_many already commits per batch)."""
        self._connection.commit()

    def close(self) -> None:
        """Commit and release the SQLite connection (idempotent)."""
        if self._closed:
            return
        self._connection.commit()
        self._connection.close()
        self._closed = True

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reads --------------------------------------------------------------
    def __contains__(self, run_key: str) -> bool:
        row = self._connection.execute(
            "SELECT 1 FROM run_results WHERE run_key = ?", (run_key,)
        ).fetchone()
        return row is not None

    def completed(self, run_keys: Iterable[str]) -> Set[str]:
        """The subset of *run_keys* that already have a stored report."""
        keys = list(run_keys)
        found: Set[str] = set()
        chunk = 500  # stay well under SQLite's bound-parameter limit
        for start in range(0, len(keys), chunk):
            batch = keys[start:start + chunk]
            placeholders = ",".join("?" for _ in batch)
            rows = self._connection.execute(
                f"SELECT run_key FROM run_results WHERE run_key IN ({placeholders})",
                batch,
            ).fetchall()
            found.update(row[0] for row in rows)
        return found

    def get(self, run_key: str) -> Optional[ExecutionReport]:
        row = self._connection.execute(
            "SELECT report_json FROM run_results WHERE run_key = ?", (run_key,)
        ).fetchone()
        if row is None:
            return None
        return report_from_dict(json.loads(row[0]))

    def scenario_run_count(self, scenario: str) -> int:
        row = self._connection.execute(
            "SELECT COUNT(*) FROM run_results WHERE scenario = ?", (scenario,)
        ).fetchone()
        return int(row[0])

    def scenarios(self) -> List[str]:
        rows = self._connection.execute(
            "SELECT DISTINCT scenario FROM run_results ORDER BY scenario"
        ).fetchall()
        return [row[0] for row in rows]

    # -- per-node instrumentation series ------------------------------------
    def node_metrics(
        self,
        run_key: Optional[str] = None,
        scenario: Optional[str] = None,
        sink: Optional[str] = None,
        series: Optional[str] = None,
    ) -> List[Dict]:
        """Per-node instrumentation rows matching the given filters.

        Each row is ``{run_key, scenario, algorithm, sink, series, node_id,
        value}`` -- the normalized form of every reporting sink's per-node
        series (e.g. the energy sink's per-node ``energy_uj``).
        """
        clauses, params = [], []
        for column, value in (("run_key", run_key), ("scenario", scenario),
                              ("sink", sink), ("series", series)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._connection.execute(
            "SELECT run_key, scenario, algorithm, sink, series, node_id, value "
            f"FROM run_node_metrics{where} "
            "ORDER BY scenario, algorithm, sink, series, node_id",
            params,
        ).fetchall()
        keys = ("run_key", "scenario", "algorithm", "sink", "series",
                "node_id", "value")
        return [dict(zip(keys, row)) for row in rows]

    def node_metrics_count(self, scenario: Optional[str] = None) -> int:
        """How many per-node metric values the store holds."""
        if scenario is None:
            row = self._connection.execute(
                "SELECT COUNT(*) FROM run_node_metrics"
            ).fetchone()
        else:
            row = self._connection.execute(
                "SELECT COUNT(*) FROM run_node_metrics WHERE scenario = ?",
                (scenario,),
            ).fetchone()
        return int(row[0])

    # -- writes -------------------------------------------------------------
    def _insert(self, spec: RunSpec, report: ExecutionReport) -> str:
        run_key = spec.run_key()
        self._connection.execute(
            "INSERT OR REPLACE INTO run_results "
            "(run_key, scenario, algorithm, run_index, spec_json, report_json, created_at) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                run_key,
                spec.scenario,
                spec.algorithm,
                spec.run_index,
                json.dumps(spec.to_dict(), sort_keys=True),
                json.dumps(report_to_dict(report), sort_keys=True),
                time.time(),
            ),
        )
        if report.node_series:
            self._connection.execute(
                "DELETE FROM run_node_metrics WHERE run_key = ?", (run_key,)
            )
            self._connection.executemany(
                "INSERT INTO run_node_metrics "
                "(run_key, scenario, algorithm, sink, series, node_id, value) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                _node_metric_rows(run_key, spec, report),
            )
        return run_key

    def put(self, spec: RunSpec, report: ExecutionReport) -> str:
        """Store (or overwrite) the report for *spec*; returns the run key."""
        run_key = self._insert(spec, report)
        self._connection.commit()
        return run_key

    def put_many(self, entries: Iterable) -> int:
        """Batch insert of (RunSpec, ExecutionReport) pairs in one transaction."""
        count = 0
        with self._connection:
            for spec, report in entries:
                self._insert(spec, report)
                count += 1
        return count

    def journal_mode(self) -> str:
        return self._connection.execute("PRAGMA journal_mode").fetchone()[0]


class StreamingWriter:
    """Batches streamed ``(RunSpec, report)`` pairs into bounded store flushes.

    ``add`` buffers a completed run and commits the buffer once it holds
    ``flush_every`` results or ``flush_seconds`` have elapsed since the last
    flush -- whichever comes first.  Callers flush in a ``finally`` (or use
    the writer as a context manager), so even an abrupt interrupt persists
    everything already streamed back: only results still in flight inside
    workers -- at most one flush window -- can be lost.
    """

    def __init__(self, store: ResultStore, flush_every: int = 16,
                 flush_seconds: float = 5.0) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        if flush_seconds <= 0:
            raise ValueError("flush_seconds must be > 0")
        self.store = store
        self.flush_every = flush_every
        self.flush_seconds = flush_seconds
        self.written = 0
        self.flushes = 0
        self._buffer: List = []
        self._last_flush = time.monotonic()

    @property
    def pending(self) -> int:
        """Buffered results not yet committed to the store."""
        return len(self._buffer)

    def add(self, spec: RunSpec, report: ExecutionReport) -> None:
        self._buffer.append((spec, report))
        if (len(self._buffer) >= self.flush_every
                or time.monotonic() - self._last_flush >= self.flush_seconds):
            self.flush()

    def flush(self) -> None:
        """Commit the buffer in one transaction (no-op when empty)."""
        if self._buffer:
            self.written += self.store.put_many(self._buffer)
            self._buffer.clear()
            self.flushes += 1
        self._last_flush = time.monotonic()

    def __enter__(self) -> "StreamingWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.flush()
