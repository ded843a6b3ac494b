"""Scheduling RunSpecs: streaming serial and persistent-pool executors.

A :class:`SweepRunner` expands a :class:`~repro.engine.spec.ScenarioSpec`
into RunSpecs, skips the ones a :class:`~repro.engine.store.ResultStore`
already holds (resume), executes the rest -- in-process, or fanned out over
a persistent :class:`~repro.engine.pool.WorkerPool` reused across sweeps --
and aggregates the streamed-back reports exactly as the serial harness
always did (per-algorithm means and Student-t 95 % confidence intervals,
runs ordered by run index).

Execution is crash-safe: results are persisted through a
:class:`~repro.engine.store.StreamingWriter` *as they arrive* (batched
flushes every ``flush_every`` results / ``flush_seconds``), so an interrupt
or worker crash loses at most one flush window and a resumed invocation
re-executes only the remainder.  Parallelism is adaptive
(:func:`~repro.engine.pool.effective_jobs`): a requested ``jobs > 1``
degrades to the serial reference when only one CPU is usable or the
scenario's observed per-run cost is below the dispatch overhead, so
``--jobs`` never makes a sweep materially slower than serial.

Because every run is a deterministic function of its RunSpec, the parallel
executor produces aggregates identical to the serial reference.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.execution import execute_run, execute_run_entry
from repro.engine.pool import (
    WorkerPool,
    effective_jobs,
    record_run_cost,
    shared_pool,
)
from repro.engine.results import AggregateResult, RunResult
from repro.engine.spec import ExperimentScale, RunSpec, ScenarioSpec, scale_from_env
from repro.engine.store import ResultStore, StreamingWriter
from repro.joins.base import ExecutionReport


@dataclass
class SettingResult:
    """All algorithm aggregates at one grid point."""

    setting: Dict[str, Any]
    aggregates: Dict[str, AggregateResult] = field(default_factory=dict)


@dataclass
class SweepResult:
    """The aggregated outcome of one scenario sweep."""

    scenario: ScenarioSpec
    scale_name: str
    groups: List[SettingResult]
    executed: int       # runs actually executed this invocation
    from_store: int     # runs served by the result store

    @property
    def total_runs(self) -> int:
        return self.executed + self.from_store

    def only(self) -> Dict[str, AggregateResult]:
        """The aggregates of a scenario without a grid (single setting)."""
        if len(self.groups) != 1:
            raise ValueError(
                f"scenario {self.scenario.name!r} has {len(self.groups)} grid "
                "points; address them via .groups"
            )
        return self.groups[0].aggregates

    def rows(self, metrics: Optional[Sequence[str]] = None) -> List[Dict[str, object]]:
        """Flatten into table rows: one per (grid point, algorithm).

        Byte-denominated metrics (``*_traffic``, ``*_load``) become KB
        columns with a ``_kb`` suffix; counters and
        instrumentation metrics (reoptimizations, energy, Gini, latency)
        keep their natural unit and name.
        """
        metrics = list(metrics or self.scenario.metrics)
        rows: List[Dict[str, object]] = []
        for group in self.groups:
            for algorithm, aggregate in group.aggregates.items():
                row: Dict[str, object] = dict(group.setting)
                row["algorithm"] = algorithm
                for metric in metrics:
                    scale = metric.endswith("_traffic") or metric.endswith("_load")
                    divisor = 1000.0 if scale else 1.0
                    suffix = "_kb" if scale else ""
                    row[f"{metric}{suffix}"] = aggregate.mean(metric) / divisor
                    row[f"{metric}_ci95{suffix}"] = aggregate.confidence_95(metric) / divisor
                rows.append(row)
        return rows


class SweepRunner:
    """Schedules a scenario's RunSpecs over a pluggable executor.

    Parameters
    ----------
    jobs:
        1 runs the serial reference executor in-process; N > 1 fans runs out
        over a persistent pool of N workers (subject to the adaptive serial
        fallback, see ``adaptive``).
    store:
        Optional :class:`ResultStore` (or path to one).  Completed runs are
        looked up by spec hash and skipped; new results are persisted as
        they arrive.  A store constructed here from a path is *owned* by the
        runner and released by :meth:`close` (or the ``with`` statement); a
        ResultStore instance passed in stays the caller's to close.
    resume:
        When False the store is still written but never consulted, so every
        run re-executes.
    progress:
        Optional callable ``(done, total, spec)`` invoked as results arrive.
    flush_every / flush_seconds:
        Streaming-persistence flush window: buffered results are committed
        once the buffer holds ``flush_every`` of them or ``flush_seconds``
        have elapsed.  An interrupt loses at most one such window.
    pool:
        Optional :class:`~repro.engine.pool.WorkerPool` to dispatch through.
        By default parallel sweeps share the process-wide persistent pool
        for this job count (:func:`~repro.engine.pool.shared_pool`), so
        consecutive sweeps amortize worker startup.
    adaptive:
        When True (default), ``jobs > 1`` falls back to serial execution if
        only one CPU is usable or the scenario's observed per-run cost is
        below the dispatch overhead; False always honors ``jobs``.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: Optional[ResultStore] = None,
        resume: bool = True,
        progress: Optional[Callable[[int, int, RunSpec], None]] = None,
        flush_every: int = 16,
        flush_seconds: float = 5.0,
        pool: Optional[WorkerPool] = None,
        adaptive: bool = True,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self._owns_store = isinstance(store, (str, os.PathLike))
        self.store = ResultStore(store) if self._owns_store else store
        self.resume = resume
        self.progress = progress
        self.flush_every = flush_every
        self.flush_seconds = flush_seconds
        self.pool = pool
        self.adaptive = adaptive
        self.last_executed = 0
        self.last_from_store = 0

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the store if this runner created it from a path.

        Explicitly passed stores and the shared worker pool are left alone
        (the pool is process-wide and shut down at interpreter exit or via
        :func:`~repro.engine.pool.shutdown_shared_pools`).
        """
        if self._owns_store and self.store is not None:
            self.store.close()

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(self, scenario: ScenarioSpec,
            scale: Optional[ExperimentScale] = None) -> SweepResult:
        scale = scale or scale_from_env()
        specs = scenario.expand(scale)

        reports: Dict[RunSpec, ExecutionReport] = {}
        from_store = 0
        pending: List[RunSpec] = []
        if self.store is not None and self.resume:
            keys = {spec: spec.run_key() for spec in specs}
            done = self.store.completed(keys.values())
            for spec in specs:
                if keys[spec] in done:
                    report = self.store.get(keys[spec])
                    if report is not None:
                        reports[spec] = report
                        from_store += 1
                        continue
                pending.append(spec)
        else:
            pending = list(specs)

        writer = None
        if self.store is not None:
            writer = StreamingWriter(self.store, flush_every=self.flush_every,
                                     flush_seconds=self.flush_seconds)
        executed = self._execute(pending, reports, total=len(specs), done=from_store,
                                 writer=writer)

        self.last_executed = executed
        self.last_from_store = from_store
        return SweepResult(
            scenario=scenario,
            scale_name=scale.name,
            groups=self._aggregate(scenario, specs, reports),
            executed=executed,
            from_store=from_store,
        )

    # ------------------------------------------------------------------
    def _execute(self, pending: List[RunSpec], reports: Dict[RunSpec, ExecutionReport],
                 total: int, done: int,
                 writer: Optional[StreamingWriter] = None) -> int:
        if not pending:
            return 0
        # the cost estimate must distinguish scales: the same scenario at
        # smoke vs paper size differs by orders of magnitude per run
        cost_key = (pending[0].scenario, pending[0].num_nodes,
                    pending[0].cycles)
        workers = effective_jobs(self.jobs, len(pending), scenario=cost_key,
                                 adaptive=self.adaptive)
        pool = None
        completed = 0
        started = time.perf_counter()
        try:
            if workers > 1:
                pool = self.pool if self.pool is not None else shared_pool(self.jobs)
                # small chunks keep results streaming back (and into the
                # store's flush window) instead of batching up in workers
                chunksize = max(1, len(pending) // (workers * 4))
                results = pool.imap_unordered(execute_run_entry, pending,
                                              chunksize=chunksize)
            else:
                results = ((spec, execute_run(spec).report) for spec in pending)
            for spec, report in results:
                reports[spec] = report
                completed += 1
                if writer is not None:
                    writer.add(spec, report)
                if self.progress is not None:
                    self.progress(done + completed, total, spec)
        except BaseException:
            # abandoning the imap iterator would leave workers grinding
            # through the rest of the sweep (and shadow-executing specs a
            # resumed run re-dispatches); terminate them -- the pool
            # restarts lazily on its next use
            if pool is not None:
                pool.close()
            raise
        finally:
            # an interrupt or worker crash persists everything streamed back
            # so far: at most one flush window of results is re-executed
            if writer is not None:
                writer.flush()
            if completed:
                # scale by the worker count so a parallel sweep records the
                # per-run cost a serial executor would observe
                elapsed = time.perf_counter() - started
                record_run_cost(cost_key, elapsed * workers / completed)
        return completed

    # ------------------------------------------------------------------
    @staticmethod
    def _aggregate(scenario: ScenarioSpec, specs: List[RunSpec],
                   reports: Dict[RunSpec, ExecutionReport]) -> List[SettingResult]:
        groups: Dict[Tuple, SettingResult] = {}
        for spec in specs:
            group = groups.get(spec.setting)
            if group is None:
                group = groups[spec.setting] = SettingResult(setting=spec.setting_dict())
            label = spec.display_label
            aggregate = group.aggregates.get(label)
            if aggregate is None:
                aggregate = group.aggregates[label] = AggregateResult(
                    algorithm=label
                )
            aggregate.runs.append(
                RunResult(algorithm=spec.algorithm, seed=spec.seed,
                          report=reports[spec])
            )
        for group in groups.values():
            for aggregate in group.aggregates.values():
                aggregate.runs.sort(key=lambda run: run.seed)
        return list(groups.values())
