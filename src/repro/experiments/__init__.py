"""Experiments reproducing every figure of the paper's evaluation.

There is one way to run a figure: its built-in scenario plus a row shaper.

* :mod:`repro.engine` -- the underlying scenario/execution/persistence
  engine: scale presets (``smoke`` / ``default`` / ``paper``), declarative
  :class:`~repro.engine.spec.ScenarioSpec` sweeps, the
  :class:`~repro.engine.runner.SweepRunner` (serial or multiprocessing
  executors) and the SQLite-backed :class:`~repro.engine.store.ResultStore`
  for resumable sweeps.
* :mod:`repro.experiments.scenarios` -- named built-in scenarios,
  scenario-file discovery, the ``SCENARIO_TABLE_SHAPERS`` registry and
  :func:`~repro.experiments.scenarios.figure_rows`, which runs a scenario and
  shapes the finished sweep into its figure's rows.
* :mod:`repro.experiments.figures_joins` -- Figures 2-9 (join algorithm
  comparison, cost-model validation, centralized-vs-distributed, MPO).
* :mod:`repro.experiments.figures_adaptive` -- Figures 10-14 (learning,
  skew/drift, Intel dataset, node failure).
* :mod:`repro.experiments.figures_substrate` -- Appendix C/F/G figures
  (16-20: path quality, mesh networks, scale-up) and Table 3 validation.
* :mod:`repro.experiments.report` -- plain-text tables mirroring the figures.
* :mod:`repro.experiments.cli` -- ``--figure X`` prints a figure's table;
  ``run-scenario X`` prints the sweep table and then the same figure table.
"""

from repro.engine import (
    AggregateResult,
    ExperimentScale,
    ResultStore,
    RunResult,
    ScenarioSpec,
    SweepResult,
    SweepRunner,
    build_workload,
    load_scenario_file,
    make_strategy,
    reset_workload_caches,
    run_single,
    scale_from_env,
)
from repro.experiments.report import format_table, sweep_to_rows

__all__ = [
    "AggregateResult",
    "ExperimentScale",
    "ResultStore",
    "RunResult",
    "ScenarioSpec",
    "SweepResult",
    "SweepRunner",
    "build_workload",
    "format_table",
    "load_scenario_file",
    "make_strategy",
    "reset_workload_caches",
    "run_single",
    "scale_from_env",
    "sweep_to_rows",
]
