"""The scenario/execution/persistence engine behind the experiment stack.

The engine splits an experiment sweep into three declarative layers:

* **Scenario layer** (:mod:`repro.engine.spec`) -- a
  :class:`~repro.engine.spec.ScenarioSpec` describes a sweep as pure data
  (topology preset, query name, selectivities, algorithms, link/failure
  config, parameter grid) and expands into frozen, hashable
  :class:`~repro.engine.spec.RunSpec` units.  Scenarios round-trip through
  JSON/TOML so they can be authored as files and run from the CLI.
* **Execution layer** (:mod:`repro.engine.runner`,
  :mod:`repro.engine.execution`, :mod:`repro.engine.pool`) -- a
  :class:`~repro.engine.runner.SweepRunner` schedules RunSpecs over a serial
  reference executor or a persistent :class:`~repro.engine.pool.WorkerPool`
  (reused across sweeps, with an adaptive serial fallback when parallelism
  cannot pay) with worker-local bounded caches
  (:mod:`repro.engine.workload`), streams reports back and aggregates them
  with the paper's means and 95 % confidence intervals.
* **Persistence layer** (:mod:`repro.engine.store`) -- a SQLite/WAL
  :class:`~repro.engine.store.ResultStore` keyed by RunSpec content hash
  makes sweeps resumable: results stream into the store in bounded flush
  windows (:class:`~repro.engine.store.StreamingWriter`) as they arrive, so
  an interrupt loses at most one window and completed runs are skipped on
  re-invocation.

Algorithms and query builders are referenced by name through the registries
in :mod:`repro.engine.registry`; external code can plug in via the
``register_strategy`` / ``register_query_builder`` hooks.  Instrumentation
sinks (:mod:`repro.metrics`) are likewise referenced by preset name through a
scenario's ``sinks`` knob; runs that enable them persist per-node series into
the store's ``run_node_metrics`` table.
"""

from repro.engine.execution import execute_run, execute_run_entry, run_single
from repro.engine.pool import (
    WorkerPool,
    effective_jobs,
    shared_pool,
    shutdown_shared_pools,
    usable_cpus,
)
from repro.engine.registry import (
    FIGURE2_ALGORITHMS,
    MESH_ALGORITHMS,
    QUERIES,
    RUN_KINDS,
    STRATEGIES,
    WORKLOAD_SOURCES,
    make_query,
    make_strategy,
    register_assumed_provider,
    register_query_builder,
    register_run_kind,
    register_strategy,
    register_workload_source,
)
from repro.engine.results import AggregateResult, RunResult, measurement_report
from repro.engine.runner import SettingResult, SweepResult, SweepRunner
from repro.engine.spec import (
    SCALES,
    ExperimentScale,
    PhaseSpec,
    RunSpec,
    ScenarioSpec,
    load_scenario_file,
    resolve_scale,
    scale_from_env,
)
from repro.engine.store import ResultStore, StreamingWriter
from repro.engine.workload import (
    build_phased_workload,
    build_topology,
    build_workload,
    reset_workload_caches,
)

__all__ = [
    "AggregateResult",
    "ExperimentScale",
    "FIGURE2_ALGORITHMS",
    "MESH_ALGORITHMS",
    "PhaseSpec",
    "QUERIES",
    "RUN_KINDS",
    "ResultStore",
    "RunResult",
    "RunSpec",
    "SCALES",
    "STRATEGIES",
    "ScenarioSpec",
    "SettingResult",
    "StreamingWriter",
    "SweepResult",
    "SweepRunner",
    "WORKLOAD_SOURCES",
    "WorkerPool",
    "effective_jobs",
    "build_phased_workload",
    "build_topology",
    "build_workload",
    "execute_run",
    "execute_run_entry",
    "load_scenario_file",
    "make_query",
    "make_strategy",
    "measurement_report",
    "register_assumed_provider",
    "register_query_builder",
    "register_run_kind",
    "register_strategy",
    "register_workload_source",
    "reset_workload_caches",
    "resolve_scale",
    "run_single",
    "scale_from_env",
    "shared_pool",
    "shutdown_shared_pools",
    "usable_cpus",
]
