"""Persistent worker pools and adaptive parallelism decisions.

The sweep engine used to spawn a fresh ``multiprocessing`` pool per sweep,
which made small sweeps *slower* with ``--jobs`` than without (pool startup
dwarfed the work, and on single-CPU machines parallelism cannot pay off at
all).  This module fixes both ends of that trade:

* :class:`WorkerPool` wraps one lazily started, long-lived pool that is
  reused across sweeps -- a campaign over many scenarios pays worker startup
  once.  :func:`shared_pool` hands out one process-wide pool per worker
  count, shut down at interpreter exit (or explicitly via
  :func:`shutdown_shared_pools`).
* :func:`effective_jobs` is the adaptive serial fallback: a sweep runs
  serially when only one CPU is usable or when the scenario's observed
  per-run cost (a process-local EMA fed by the runner) is below the
  per-task dispatch overhead, so ``--jobs N`` never makes a sweep
  materially slower than the serial reference.

Workers execute :func:`repro.engine.execution.execute_run_entry` and are
initialized with :func:`repro.engine.execution.initialize_worker`; both are
top-level functions so the pool works on spawn-only platforms too.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from typing import Dict, Hashable, Iterable, Iterator, List, Optional

from repro.engine.execution import initialize_worker
from repro.engine.registry import registry_generation

#: Estimated per-task cost of dispatching a run to a warm pool worker
#: (pickle the RunSpec, queue round-trip, unpickle the report).
DISPATCH_OVERHEAD_S = 0.001

#: Below this observed per-run cost, dispatch overhead eats the parallel
#: gain even on a warm pool, so the runner falls back to serial.
MIN_PARALLEL_RUN_S = 4 * DISPATCH_OVERHEAD_S


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# per-scenario run-cost estimates (fed by the runner, read by effective_jobs)
# ---------------------------------------------------------------------------

_COST_EMA: Dict[Hashable, float] = {}
_EMA_ALPHA = 0.5


def record_run_cost(scenario: Hashable, per_run_seconds: float) -> None:
    """Fold an observed mean per-run wall-clock into the scenario's EMA.

    *scenario* is any hashable cost key; the runner uses
    ``(scenario name, num_nodes, cycles)`` so the same scenario at different
    scales keeps separate estimates.
    """
    if per_run_seconds <= 0:
        return
    previous = _COST_EMA.get(scenario)
    if previous is None:
        _COST_EMA[scenario] = per_run_seconds
    else:
        _COST_EMA[scenario] = (
            _EMA_ALPHA * per_run_seconds + (1 - _EMA_ALPHA) * previous
        )


def estimated_run_cost(scenario: Optional[Hashable]) -> Optional[float]:
    """The cost key's per-run estimate, or None before its first run."""
    if scenario is None:
        return None
    return _COST_EMA.get(scenario)


def reset_run_costs() -> None:
    _COST_EMA.clear()


def effective_jobs(jobs: int, pending: int,
                   scenario: Optional[Hashable] = None,
                   adaptive: bool = True) -> int:
    """How many workers a sweep of *pending* runs should actually use.

    With ``adaptive`` (the default) the request degrades to serial when
    parallelism cannot pay: a single usable CPU, or a known per-run cost
    below the dispatch overhead.  An unknown cost (first sweep of a
    scenario) is treated optimistically.  ``adaptive=False`` honors the
    requested job count as long as there is more than one run to schedule.
    """
    if jobs <= 1 or pending <= 1:
        return 1
    if not adaptive:
        return min(jobs, pending)
    if usable_cpus() <= 1:
        return 1
    estimate = estimated_run_cost(scenario)
    if estimate is not None and estimate < MIN_PARALLEL_RUN_S:
        return 1
    return min(jobs, pending)


# ---------------------------------------------------------------------------
# the persistent pool
# ---------------------------------------------------------------------------


class WorkerPool:
    """A lazily started ``multiprocessing`` pool reused across sweeps.

    The underlying pool is created on the first dispatch and kept warm until
    :meth:`close`, so consecutive sweeps (a campaign) amortize worker
    startup.  ``starts`` counts worker-process creations (1 for a healthy
    pool, however many sweeps ran through it) and ``dispatched`` counts runs
    handed to workers over the pool's lifetime.
    """

    def __init__(self, jobs: int, start_method: Optional[str] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        if start_method is None:
            # fork (where available) lets workers inherit warmed caches and
            # the runtime registrations present at (re)start; spawn-only
            # platforms re-import cleanly.
            start_method = ("fork" if "fork" in
                            multiprocessing.get_all_start_methods() else None)
        self._method = start_method
        self._pool = None
        self._generation = -1
        self.starts = 0
        self.dispatched = 0

    @property
    def started(self) -> bool:
        return self._pool is not None

    def _ensure(self):
        # a durable registration made after the workers were created would
        # be invisible to them (they snapshot state at fork/spawn); restart
        # so late register_strategy()/register_query_builder() calls land
        if self._pool is not None and self._generation != registry_generation():
            self.close()
        if self._pool is None:
            context = multiprocessing.get_context(self._method)
            self._generation = registry_generation()
            self._pool = context.Pool(
                processes=self.jobs, initializer=initialize_worker
            )
            self.starts += 1
        return self._pool

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes (empty before the first start)."""
        if self._pool is None:
            return []
        return [worker.pid for worker in self._pool._pool]

    def imap_unordered(self, func, items: Iterable,
                       chunksize: int = 1) -> Iterator:
        items = list(items)
        self.dispatched += len(items)
        return self._ensure().imap_unordered(func, items, chunksize=chunksize)

    def close(self) -> None:
        """Terminate the workers (idempotent); the pool restarts on next use."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "warm" if self.started else "cold"
        return (f"WorkerPool(jobs={self.jobs}, {state}, "
                f"starts={self.starts}, dispatched={self.dispatched})")


_SHARED: Dict[int, WorkerPool] = {}


def shared_pool(jobs: int) -> WorkerPool:
    """The process-wide persistent pool for *jobs* workers (created once)."""
    pool = _SHARED.get(jobs)
    if pool is None:
        pool = _SHARED[jobs] = WorkerPool(jobs)
    return pool


def shutdown_shared_pools() -> None:
    """Terminate every shared pool (also registered as an atexit hook)."""
    for pool in _SHARED.values():
        pool.close()
    _SHARED.clear()


atexit.register(shutdown_shared_pools)
