"""Benchmark of the sweep engine: serial reference, adaptive jobs=4, pool reuse.

Times the Figure 2 smoke sweep (3 ratios x 2 join selectivities x 6
algorithms) end-to-end through ``SweepRunner``:

* the serial reference executor;
* ``jobs=4`` with the adaptive fallback enabled -- on a single-CPU machine
  (or for runs cheaper than the dispatch overhead) this degrades to serial,
  which is exactly the fix for the old "parallel 2x slower than serial"
  regression: jobs>=1 must never be materially slower than serial;
* a persistent :class:`WorkerPool` run twice back to back (``adaptive=False``
  so the pool is exercised even on one CPU): the first sweep pays worker
  startup, the second reuses the warm workers, demonstrating the
  amortization a campaign gets across scenarios.

Results land in ``BENCH_sweep.json`` at the repo root so future PRs can
track the engine's scaling trajectory alongside ``BENCH_transport.json``.
"""

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.engine import SCALES, SweepRunner, WorkerPool, reset_workload_caches
from repro.engine.pool import reset_run_costs, usable_cpus
from repro.experiments.scenarios import BUILTIN_SCENARIOS

from conftest import run_once

_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"
_RESULTS = {}

_SMOKE = SCALES["smoke"]


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    """Persist the collected timings after the module's benchmarks ran."""
    yield
    if not _RESULTS:
        return
    serial = _RESULTS.get("sweep_fig02_smoke_serial", {}).get("mean_s")
    jobs4 = _RESULTS.get("sweep_fig02_smoke_jobs4", {}).get("mean_s")
    cold = _RESULTS.get("sweep_fig02_smoke_pool_cold", {}).get("mean_s")
    warm = _RESULTS.get("sweep_fig02_smoke_pool_warm", {}).get("mean_s")
    payload = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        # pool scaling only shows above 1 core; record the context
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "scenario": "fig02-smoke",
        "benchmarks": _RESULTS,
        "speedup_jobs4_vs_serial": (serial / jobs4) if serial and jobs4 else None,
        "pool_reuse_warm_vs_cold_speedup": (cold / warm) if cold and warm else None,
    }
    _RESULTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _record(name, benchmark):
    stats = benchmark.stats.stats
    _RESULTS[name] = {"mean_s": stats.mean, "min_s": stats.min}


def _run_sweep(jobs, **runner_kwargs):
    # Cold caches each time so serial and parallel pay the same setup cost
    # (pool workers fork after the reset and warm their own copies).
    reset_workload_caches()
    scenario = BUILTIN_SCENARIOS["fig02-smoke"]()
    sweep = SweepRunner(jobs=jobs, **runner_kwargs).run(scenario, _SMOKE)
    assert sweep.executed == 36
    return sweep


def test_sweep_fig02_smoke_serial(benchmark, show):
    sweep = run_once(benchmark, _run_sweep, 1)
    _record("sweep_fig02_smoke_serial", benchmark)
    show("fig02-smoke via SweepRunner (serial)", sweep.rows()[:6])


def test_sweep_fig02_smoke_jobs4(benchmark):
    # adaptive (the default): on one CPU, or when the observed per-run cost
    # sits below the dispatch overhead, this degrades to the serial executor
    # -- the contract is "jobs=4 never materially slower than serial"
    sweep = run_once(benchmark, _run_sweep, 4)
    _record("sweep_fig02_smoke_jobs4", benchmark)
    assert len(sweep.groups) == 6


def test_sweep_fig02_smoke_pool_reuse():
    """A second sweep on a warm persistent pool reuses its workers: one pool
    start and 72 dispatches across both sweeps.  Both timings are recorded
    for the trajectory; no assert reads the clock."""
    reset_run_costs()
    with WorkerPool(2) as pool:
        started = time.perf_counter()
        _run_sweep(2, pool=pool, adaptive=False)
        cold = time.perf_counter() - started
        assert pool.starts == 1

        started = time.perf_counter()
        _run_sweep(2, pool=pool, adaptive=False)
        warm = time.perf_counter() - started
        # still the same workers: the second sweep paid no startup
        assert pool.starts == 1
        assert pool.dispatched == 72
    _RESULTS["sweep_fig02_smoke_pool_cold"] = {"mean_s": cold, "min_s": cold}
    _RESULTS["sweep_fig02_smoke_pool_warm"] = {"mean_s": warm, "min_s": warm}
