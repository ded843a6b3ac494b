"""Micro-benchmarks for the routing/transport performance layer.

Times the Python-level hot paths every figure benchmark leans on — the
per-tuple ``NetworkSimulator.transfer``, the batch-cycle kernel's
``CycleBatcher.ship_many`` / ``ship_edges`` + ``flush`` (the calls the
strategies make on the kernel) and the PathCache-backed
``Topology.shortest_path``/``shortest_hops`` — on perfect and lossy links,
and records the results in ``BENCH_transport.json`` at the repo
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


def _batch_rounds(simulator, paths, rounds=10):
    """*rounds* kernel cycles over *paths*: one ``ship_many`` + ``flush``
    each, the calls a strategy's ``execute_cycle_batch`` makes."""
    batcher = CycleBatcher(simulator)

    def run():
        for _ in range(rounds):
            batcher.ship_many(paths, 24, MessageKind.DATA)
            batcher.flush()
        return simulator.stats.messages_sent
    return run


def test_perf_transfer_batch_perfect(benchmark, mesh):
    """The batch-cycle kernel on perfect links: one event per round."""
    simulator = NetworkSimulator(mesh)
    base = mesh.base_id
    paths = [mesh.shortest_path(node, base) for node in mesh.node_ids if node != base]

    assert benchmark(_batch_rounds(simulator, paths)) > 0
    _record("transfer_heavy_batch_perfect", benchmark)


def test_perf_transfer_batch_lossy(benchmark, mesh):
    """The batch-cycle kernel on lossy links: one draw + one event."""
    simulator = NetworkSimulator(mesh, link_model=lossy_links(0.2, seed=9))
    base = mesh.base_id
    paths = [mesh.shortest_path(node, base) for node in mesh.node_ids if node != base]

    assert benchmark(_batch_rounds(simulator, paths)) > 0
    _record("transfer_heavy_batch_lossy", benchmark)


def _record_speedup(reference, batched):
    """Store *batched*'s measured speedup over *reference* (perf trajectory
    only: wall-clock ratios are too noisy to gate on)."""
    if reference in _RESULTS and batched in _RESULTS:
        _RESULTS[batched]["speedup_vs_per_tuple"] = (
            _RESULTS[reference]["mean_s"] / _RESULTS[batched]["mean_s"]
        )


def _count_work(monkeypatch, simulator):
    """Count, on *simulator*'s own objects, the three kinds of work the
    batch kernel must keep flat: pipeline ``charge_paths_batch`` events,
    link-model draws and per-path ``transfer`` calls."""
    counts = {"charge_paths_batch": 0, "link_draw": 0, "transfer": 0}

    def counted(owner, name, counter):
        original = getattr(owner, name)

        def call(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)

    counted(simulator.pipeline, "charge_paths_batch", "charge_paths_batch")
    for draw in ("attempt_hop", "attempt_hops", "attempt_hops_batch"):
        counted(simulator.links, draw, "link_draw")
    counted(simulator, "transfer", "transfer")
    return counts


def test_perf_batch_work_count_guard(mesh, monkeypatch):
    """One ``ship_many`` + ``flush`` does a round's work in one piece.

    Over the mesh's paths it emits exactly one ``charge_paths_batch``
    event, makes one link-model call (on perfect links it returns
    all-delivered arrays and draws nothing) and no per-path ``transfer``
    call.  A per-path Python loop re-introduced into the kernel breaks
    these counts on any machine.
    """
    _record_speedup("transfer_heavy_perfect", "transfer_heavy_batch_perfect")
    _record_speedup("transfer_heavy_lossy", "transfer_heavy_batch_lossy")
    base = mesh.base_id
    paths = [mesh.shortest_path(node, base) for node in mesh.node_ids if node != base]
    for link_model in (None, lossy_links(0.2, seed=9)):
        simulator = NetworkSimulator(mesh, link_model=link_model)
        rng_state = simulator.links._rng.bit_generator.state
        counts = _count_work(monkeypatch, simulator)
        _batch_rounds(simulator, paths, rounds=1)()
        assert counts == {"charge_paths_batch": 1, "link_draw": 1,
                          "transfer": 0}
        if link_model is None:
            assert simulator.links._rng.bit_generator.state == rng_state


@pytest.fixture(scope="module")
def innet_rung():
    """Innet-shaped cycle traffic at the ladder's 10k rung.

    A roster of producers, each with a multicast tree spanning two join
    nodes plus a SEND_TO_JOIN fan-in path -- the traffic shape of an innet
    cycle, shipped through the batcher's ``ship_edges`` / ``ship_many``
    entry points and isolated from the probe/window work so the benchmark
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
    tree_edges = [list(zip(*(a.tolist() for a in tree.edge_arrays())))
                  for tree in trees]

    def run():
        for _ in range(5):
            for edges in tree_edges:
                for parent, child in edges:
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


def test_perf_batch_innet_work_count_guard(innet_rung, monkeypatch):
    """The batched innet cycle does its shipping in one piece per call.

    Each flush emits exactly one ``charge_paths_batch`` event; each
    ``ship_edges`` and each ``ship_many`` call makes one link-model call
    (on perfect links it draws nothing); no per-path ``transfer`` call is
    made.
    """
    _record_speedup("transfer_heavy_innet_reference", "transfer_heavy_batch_innet")
    topology, _, join_paths, senders, receivers = innet_rung
    cycles = 3
    for link_model in (None, lossy_links(0.2, seed=9)):
        simulator = NetworkSimulator(topology, link_model=link_model)
        rng_state = simulator.links._rng.bit_generator.state
        batcher = CycleBatcher(simulator)
        counts = _count_work(monkeypatch, simulator)
        for _ in range(cycles):
            batcher.ship_edges(senders, receivers, 24, MessageKind.DATA)
            batcher.ship_many(join_paths, 24, MessageKind.DATA)
            batcher.flush()
        assert counts == {"charge_paths_batch": cycles,
                          "link_draw": 2 * cycles, "transfer": 0}
        if link_model is None:
            assert simulator.links._rng.bit_generator.state == rng_state


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
