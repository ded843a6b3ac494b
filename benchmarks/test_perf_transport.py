"""Micro-benchmarks for the routing/transport performance layer.

Times the two Python-level hot paths every figure benchmark leans on — the
instant-accounting ``NetworkSimulator.transfer`` and the PathCache-backed
``Topology.shortest_path``/``shortest_hops`` — plus the lossy batched
variant, and records the results in ``BENCH_transport.json`` at the repo
root so future PRs have a perf trajectory to compare against.
"""

import json
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.joins.multicast import build_multicast_tree
from repro.metrics import EnergySink, HotspotSink, MetricsPipeline
from repro.network.batch import CycleBatcher
from repro.network.links import lossy_links
from repro.network.message import MessageKind
from repro.network.simulator import NetworkSimulator
from repro.network.topology import grid_topology, random_topology
from repro.network.traffic import TrafficStats

_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_transport.json"
_RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    """Persist the collected timings after the module's benchmarks ran."""
    yield
    if not _RESULTS:
        return
    payload = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "benchmarks": _RESULTS,
    }
    _RESULTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _record(name, benchmark):
    stats = benchmark.stats.stats
    _RESULTS[name] = {
        "mean_s": stats.mean,
        "min_s": stats.min,
        "ops_per_s": 1.0 / stats.mean if stats.mean else None,
    }


@pytest.fixture(scope="module")
def mesh():
    return grid_topology(num_nodes=100)


@pytest.fixture(scope="module")
def mote():
    return random_topology(num_nodes=100, average_degree=8.0, seed=2)


def test_perf_transfer_heavy(benchmark, mesh):
    """Charge 1k multi-hop paths per round through the fast path."""
    simulator = NetworkSimulator(mesh)
    base = mesh.base_id
    paths = [mesh.shortest_path(node, base) for node in mesh.node_ids if node != base]

    def run():
        for _ in range(10):
            for path in paths:
                simulator.transfer(path, 24, MessageKind.DATA)
        return simulator.stats.messages_sent

    assert benchmark(run) > 0
    _record("transfer_heavy_perfect", benchmark)


def test_perf_transfer_lossy(benchmark, mesh):
    """The batched truncated-geometric sampling path."""
    simulator = NetworkSimulator(mesh, link_model=lossy_links(0.2, seed=9))
    base = mesh.base_id
    paths = [mesh.shortest_path(node, base) for node in mesh.node_ids if node != base]

    def run():
        for _ in range(10):
            for path in paths:
                simulator.transfer(path, 24, MessageKind.DATA)
        return simulator.stats.messages_sent

    assert benchmark(run) > 0
    _record("transfer_heavy_lossy", benchmark)


def test_perf_transfer_batch_perfect(benchmark, mesh):
    """The batch-cycle kernel on perfect links: one event per round."""
    simulator = NetworkSimulator(mesh)
    base = mesh.base_id
    paths = [mesh.shortest_path(node, base) for node in mesh.node_ids if node != base]
    prepared = simulator.prepare_paths(paths)

    def run():
        for _ in range(10):
            simulator.transfer_many(prepared, 24, MessageKind.DATA)
        return simulator.stats.messages_sent

    assert benchmark(run) > 0
    _record("transfer_heavy_batch_perfect", benchmark)


def test_perf_transfer_batch_lossy(benchmark, mesh):
    """The batch-cycle kernel on lossy links: one draw + one event."""
    simulator = NetworkSimulator(mesh, link_model=lossy_links(0.2, seed=9))
    base = mesh.base_id
    paths = [mesh.shortest_path(node, base) for node in mesh.node_ids if node != base]
    prepared = simulator.prepare_paths(paths)

    def run():
        for _ in range(10):
            simulator.transfer_many(prepared, 24, MessageKind.DATA)
        return simulator.stats.messages_sent

    assert benchmark(run) > 0
    _record("transfer_heavy_batch_lossy", benchmark)


def test_perf_batch_speedup_guard():
    """The batch kernel must stay >= 5x the per-tuple reference path.

    Runs after the four transfer benchmarks recorded their throughput; the
    issue's acceptance bar is 10x on perfect links -- the guard is set at
    half that so routine timer noise cannot break CI while a real regression
    (e.g. re-introducing a per-path Python loop into the kernel) still does.
    """
    needed = ("transfer_heavy_perfect", "transfer_heavy_batch_perfect",
              "transfer_heavy_lossy", "transfer_heavy_batch_lossy")
    if not all(name in _RESULTS for name in needed):
        pytest.skip("transfer benchmarks did not run (benchmark-only module)")
    for reference, batched in (needed[:2], needed[2:]):
        speedup = _RESULTS[reference]["mean_s"] / _RESULTS[batched]["mean_s"]
        _RESULTS[batched]["speedup_vs_per_tuple"] = speedup
        assert speedup >= 5.0, (
            f"{batched} is only {speedup:.1f}x over {reference}; "
            "the batch kernel regressed"
        )


@pytest.fixture(scope="module")
def innet_rung():
    """Innet-shaped cycle traffic at the ladder's 10k rung.

    A roster of producers, each with a multicast tree spanning two join
    nodes plus a SEND_TO_JOIN fan-in path -- the exact traffic shape
    ``InnetJoin.execute_cycle_batch`` ships through ``ship_edges`` /
    ``ship_many``, isolated from the probe/window work so the benchmark
    times the transport layer alone.
    """
    from repro.engine.workload import build_topology

    topology = build_topology(None, preset="scale", seed=0, num_nodes=10_000)
    rng = np.random.default_rng(3)
    nodes = [node for node in topology.node_ids if node != topology.base_id]
    trees = []
    join_paths = []
    for producer in rng.choice(nodes, size=200, replace=False):
        joins = rng.choice(nodes, size=2, replace=False)
        paths = [topology.shortest_path(int(producer), int(join))
                 for join in joins if int(join) != int(producer)]
        paths = [path for path in paths if path and len(path) > 1]
        if not paths:
            continue
        trees.append(build_multicast_tree(int(producer), paths))
        join_paths.append(paths[0])
    senders = np.concatenate([tree.edge_arrays()[0] for tree in trees])
    receivers = np.concatenate([tree.edge_arrays()[1] for tree in trees])
    return topology, trees, join_paths, senders, receivers


def test_perf_transfer_innet_reference(benchmark, innet_rung):
    """The per-tuple reference: one transfer per tree edge and join path."""
    topology, trees, join_paths, _, _ = innet_rung
    simulator = NetworkSimulator(topology)

    def run():
        for _ in range(5):
            for tree in trees:
                for parent, child in tree.edges():
                    simulator.transfer((parent, child), 24, MessageKind.DATA)
            for path in join_paths:
                simulator.transfer(path, 24, MessageKind.DATA)
        return simulator.stats.messages_sent

    assert benchmark(run) > 0
    _record("transfer_heavy_innet_reference", benchmark)


def test_perf_transfer_batch_innet(benchmark, innet_rung):
    """The batched innet cycle: one ship_edges + one ship_many + flush."""
    topology, _, join_paths, senders, receivers = innet_rung
    simulator = NetworkSimulator(topology)
    batcher = CycleBatcher(simulator)

    def run():
        for _ in range(5):
            batcher.ship_edges(senders, receivers, 24, MessageKind.DATA)
            batcher.ship_many(join_paths, 24, MessageKind.DATA)
            batcher.flush()
        return simulator.stats.messages_sent

    assert benchmark(run) > 0
    _record("transfer_heavy_batch_innet", benchmark)


def test_perf_batch_innet_speedup_guard():
    """The batched innet cycle must stay >= 3x the per-tuple reference."""
    needed = ("transfer_heavy_innet_reference", "transfer_heavy_batch_innet")
    if not all(name in _RESULTS for name in needed):
        pytest.skip("innet transfer benchmarks did not run")
    reference, batched = needed
    speedup = _RESULTS[reference]["mean_s"] / _RESULTS[batched]["mean_s"]
    _RESULTS[batched]["speedup_vs_per_tuple"] = speedup
    assert speedup >= 3.0, (
        f"{batched} is only {speedup:.1f}x over {reference}; "
        "the tree-shaped batch path regressed"
    )


def test_perf_pipeline_overhead_guard(mesh):
    """A pipeline with only the traffic sink adds nothing over seed accounting.

    The seed accounting path charged ``TrafficStats.charge_path`` directly;
    the pipeline's single-listener dispatch binds that same bound method, so
    the instrumented hot path is the same call.  Asserting the identity
    instead of timing both paths keeps the guard exact and clock-free.  A
    two-sink pipeline (the fan-out closure) must charge every sink exactly
    the totals of direct calls.
    """
    stats = TrafficStats()
    assert MetricsPipeline([stats]).charge_path == stats.charge_path

    base = mesh.base_id
    paths = [mesh.shortest_path(node, base) for node in mesh.node_ids if node != base]

    def charge_all(charge_path):
        for path in paths:
            charge_path(path, 24, MessageKind.DATA)
            charge_path(path, 12, MessageKind.EXPLORE, [2] * (len(path) - 1))

    direct = TrafficStats()
    charge_all(direct.charge_path)
    first, second = TrafficStats(), TrafficStats()
    charge_all(MetricsPipeline([first, second]).charge_path)
    for piped in (first, second):
        assert piped.snapshot() == direct.snapshot()
        assert piped.transmitted == direct.transmitted
        assert piped.received == direct.received


def test_perf_transfer_instrumented(benchmark, mesh):
    """Transfer throughput with the full sink set (perf trajectory only)."""
    simulator = NetworkSimulator(mesh, sinks=[EnergySink(), HotspotSink()])
    base = mesh.base_id
    paths = [mesh.shortest_path(node, base) for node in mesh.node_ids if node != base]

    def run():
        for _ in range(10):
            for path in paths:
                simulator.transfer(path, 24, MessageKind.DATA)
        return simulator.stats.messages_sent

    assert benchmark(run) > 0
    _record("transfer_heavy_instrumented", benchmark)


def test_perf_shortest_path_heavy(benchmark, mote):
    """All-pairs-ish path queries served by the PathCache."""
    nodes = mote.node_ids

    def run():
        total = 0
        for source in nodes[::2]:
            for target in nodes[::3]:
                path = mote.shortest_path(source, target)
                if path is not None:
                    total += len(path)
        return total

    assert benchmark(run) > 0
    _record("shortest_path_heavy", benchmark)


def test_perf_shortest_hops_invalidation(benchmark, mote):
    """Worst case: every round invalidates and rebuilds the BFS tables."""
    nodes = mote.node_ids

    def run():
        mote.invalidate_routing_caches()
        total = 0
        for source in nodes[::10]:
            total += len(mote.shortest_hops(source))
        return total

    assert benchmark(run) > 0
    _record("shortest_hops_cold", benchmark)
