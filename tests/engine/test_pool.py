"""Tests for the persistent worker pool and the adaptive serial fallback."""

import pytest

from repro.engine import (
    SCALES,
    ScenarioSpec,
    SweepRunner,
    WorkerPool,
    effective_jobs,
    shared_pool,
    shutdown_shared_pools,
)
from repro.engine import pool as pool_module

SMOKE = SCALES["smoke"]


def worker_pids(pool):
    """PIDs of the pool's live worker processes (empty before the first start)."""
    return [] if pool._pool is None else [worker.pid for worker in pool._pool._pool]


def tiny_scenario(name="pool-test", **overrides):
    base = dict(
        name=name,
        query="query1",
        algorithms=("naive", "base"),
        data={"sigma_s": 0.5, "sigma_t": 0.5, "sigma_st": 0.2},
        runs=2,
        cycles=3,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestEffectiveJobs:
    def test_serial_requests_stay_serial(self):
        assert effective_jobs(1, 100) == 1
        assert effective_jobs(4, 1) == 1
        assert effective_jobs(4, 0) == 1

    def test_single_cpu_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(pool_module, "usable_cpus", lambda: 1)
        assert effective_jobs(4, 100) == 1

    def test_cheap_runs_fall_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(pool_module, "usable_cpus", lambda: 8)
        pool_module._COST_EMA.clear()
        try:
            pool_module.record_run_cost("cheap", pool_module.MIN_PARALLEL_RUN_S / 10)
            assert effective_jobs(4, 100, scenario="cheap") == 1
            pool_module.record_run_cost("costly", 1.0)
            assert effective_jobs(4, 100, scenario="costly") == 4
        finally:
            pool_module._COST_EMA.clear()

    def test_unknown_cost_is_optimistic(self, monkeypatch):
        monkeypatch.setattr(pool_module, "usable_cpus", lambda: 8)
        pool_module._COST_EMA.clear()
        assert effective_jobs(4, 100, scenario="never-ran") == 4
        assert effective_jobs(4, 3) == 3  # capped at the pending count

    def test_adaptive_false_always_honors_jobs(self, monkeypatch):
        monkeypatch.setattr(pool_module, "usable_cpus", lambda: 1)
        assert effective_jobs(4, 100, adaptive=False) == 4

    def test_cost_ema_blends_observations(self):
        pool_module._COST_EMA.clear()
        try:
            pool_module.record_run_cost("s", 1.0)
            pool_module.record_run_cost("s", 0.0)  # non-positive is ignored
            assert pool_module.estimated_run_cost("s") == 1.0
            pool_module.record_run_cost("s", 3.0)
            assert pool_module.estimated_run_cost("s") == pytest.approx(2.0)
            assert pool_module.estimated_run_cost(None) is None
        finally:
            pool_module._COST_EMA.clear()


class TestWorkerPool:
    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            WorkerPool(0)

    def test_lazy_start_and_close(self):
        with WorkerPool(2) as pool:
            assert not pool.started
            assert worker_pids(pool) == []
            results = dict(pool.imap_unordered(_double, [1, 2, 3]))
            assert results == {1: 2, 2: 4, 3: 6}
            assert pool.started
            assert pool.starts == 1
            assert pool.dispatched == 3
        assert not pool.started

    def test_reuse_across_dispatches_keeps_workers(self):
        with WorkerPool(2) as pool:
            list(pool.imap_unordered(_double, [1, 2]))
            pids = set(worker_pids(pool))
            list(pool.imap_unordered(_double, [3, 4]))
            assert set(worker_pids(pool)) == pids
            assert pool.starts == 1
            assert pool.dispatched == 4

    def test_pool_reused_across_two_sweeps(self):
        """A campaign's sweeps share one set of warm workers."""
        with WorkerPool(2) as pool:
            runner = SweepRunner(jobs=2, pool=pool, adaptive=False)
            first = runner.run(tiny_scenario("pool-sweep-a"), SMOKE)
            pids = set(worker_pids(pool))
            second = runner.run(tiny_scenario("pool-sweep-b", cycles=4), SMOKE)
            assert first.executed == second.executed == 4
            assert pool.starts == 1
            assert pool.dispatched == 8
            assert set(worker_pids(pool)) == pids

    def test_late_registration_restarts_workers(self):
        """A durable registration after fork must reach the workers."""
        from repro.engine import register_strategy
        from repro.engine.registry import STRATEGIES

        with WorkerPool(2) as pool:
            list(pool.imap_unordered(_double, [1, 2]))
            assert pool.starts == 1
            register_strategy("zlate-naive", lambda **kw: STRATEGIES.create("naive"))
            try:
                sweep = SweepRunner(jobs=2, pool=pool, adaptive=False).run(
                    tiny_scenario("late-reg", algorithms=("zlate-naive",)), SMOKE)
                assert sweep.executed == 2
                assert pool.starts == 2  # stale workers were replaced
            finally:
                del STRATEGIES._builders["zlate-naive"]

    def test_runner_records_scale_aware_cost_key(self):
        """The EMA key carries num_nodes/cycles, so a cheap smoke estimate
        cannot force a later paper-scale sweep of the same scenario serial."""
        pool_module._COST_EMA.clear()
        try:
            SweepRunner().run(tiny_scenario("cost-key"), SMOKE)
            (key,) = pool_module._COST_EMA
            assert key == ("cost-key", SMOKE.num_nodes, 3)
        finally:
            pool_module._COST_EMA.clear()

    def test_adaptive_fallback_never_starts_the_pool(self, monkeypatch):
        monkeypatch.setattr(pool_module, "usable_cpus", lambda: 1)
        with WorkerPool(2) as pool:
            sweep = SweepRunner(jobs=2, pool=pool).run(tiny_scenario(), SMOKE)
            assert sweep.executed == 4
            assert not pool.started
            assert pool.dispatched == 0


class TestSharedPool:
    def test_same_job_count_shares_one_pool(self):
        shutdown_shared_pools()
        try:
            assert shared_pool(2) is shared_pool(2)
            assert shared_pool(2) is not shared_pool(3)
        finally:
            shutdown_shared_pools()

    def test_shutdown_closes_and_forgets(self):
        pool = shared_pool(2)
        list(pool.imap_unordered(_double, [1]))
        shutdown_shared_pools()
        assert not pool.started
        assert shared_pool(2) is not pool
        shutdown_shared_pools()


def _double(value):
    return value, value * 2
