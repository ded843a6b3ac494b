"""Scale benchmarks: grid-bucketed generation and array BFS at 10k nodes.

The scale ladder's wall-clock/RSS trajectory lives in ``BENCH_scale.json``,
written by ``python -m repro.experiments.scale_bench`` (one subprocess per
rung so peak RSS is attributable).  This module keeps the 10k rung honest on
every benchmark run -- regenerating its ladder entry under the acceptance
ceilings -- and micro-benchmarks the two scale hot paths (grid-
bucketed generation, vectorized BFS) so a regression shows up as a timing,
not just as a CI timeout.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.network.topology import random_topology, scale_preset_degree

_REPO = Path(__file__).resolve().parent.parent
_NODES = 10_000


def _sparse_10k():
    return random_topology(
        num_nodes=_NODES, average_degree=scale_preset_degree(_NODES),
        seed=0,
    )


def test_perf_sparse_generation_10k(benchmark):
    """Grid-bucketed generation of a connected 10k-node deployment."""
    topology = benchmark.pedantic(_sparse_10k, rounds=3, iterations=1)
    assert topology.is_connected()


def test_perf_array_bfs_cold_10k(benchmark):
    """Worst case: every round invalidates and re-runs the array BFS."""
    topology = _sparse_10k()

    def run():
        topology.invalidate_routing_caches()
        return topology.routing_cache.hops_array(topology.base_id)

    hops = benchmark(run)
    assert int((hops >= 0).sum()) == _NODES


def test_perf_landmark_tables_10k(benchmark):
    """Landmark hop tables (8 sources) on a cold cache."""
    topology = _sparse_10k()

    def run():
        topology.invalidate_routing_caches()
        return topology.routing_cache.landmark_tables(num_landmarks=8)

    landmark_ids, matrix = benchmark(run)
    assert matrix.shape == (len(landmark_ids), _NODES)


def test_perf_scale_bench_10k_rung_ceilings():
    """The ladder's 10k rung stays inside the CI wall-clock/RSS ceilings.

    Runs the real ``scale_bench`` CLI (refreshing BENCH_scale.json's 10k
    entry) with the same ceilings the CI ``scale-smoke`` job asserts.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments.scale_bench",
         "--rungs", str(_NODES), "--assert-seconds", "60",
         "--assert-rss-mb", "2048"],
        capture_output=True, text=True, cwd=_REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads((_REPO / "BENCH_scale.json").read_text())
    rungs = {r["num_nodes"]: r for r in payload["rungs"]}
    assert rungs[_NODES]["run_seconds"] is not None
