"""Initiation state shared per deployment, charged per run.

What is a pure function of one topology at one routing epoch -- routing
trees, multi-tree substrates with their semantic index, exploration
recordings, statically joining pair sets -- lives in the topology's
:class:`~repro.network.topology.DeploymentMemo` and is built once.  These
tests hold the mechanism to exact counts (no clock reads), hold lossy,
instrumented initiation to the per-path route, and check that sharing never
leaks a repair or a run: a strategy repairs a private copy, and the memo
keeps no simulator alive.
"""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.core import Selectivities
from repro.engine import SCALES, build_topology, execute_run, reset_workload_caches
from repro.engine.execution import run_single
from repro.engine.registry import make_strategy
from repro.experiments.scenarios import BUILTIN_SCENARIOS
from repro.joins import JoinExecutor
from repro.joins.base import ExecutionContext, ProducerSet
from repro.metrics.energy import EnergySink
from repro.metrics.hotspot import HotspotSink
from repro.network.batch import CycleBatcher
from repro.network.failures import FailureInjector
from repro.network.links import lossy_links
from repro.network.simulator import NetworkSimulator
from repro.network.topology import Topology
from repro.query.analysis import analyze_query
from repro.routing.multitree import MultiTreeSubstrate
from repro.routing.tree import RoutingTree
from repro.service.engine import ServiceConfig, ServiceEngine
from repro.workloads import build_query0, build_query1

from tests.joins.conftest import in_network_pair, make_workload

SMOKE = SCALES["smoke"]
SEL = Selectivities(0.5, 0.5, 0.2)
INITIATION_ALGORITHMS = ("naive", "base", "ght", "innet", "innet-cm", "innet-cmg")


def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)
    monkeypatch.setattr(cls, name, counted)
    return calls


def _tree_shape(tree):
    return tree.root, tree.parent, tree.depth, tree.children


class TestBuiltOncePerKey:
    def test_fig02_smoke_sweep_builds_each_key_once(self, monkeypatch):
        reset_workload_caches()
        trees = _count_calls(monkeypatch, RoutingTree, "__init__")
        substrates = _count_calls(monkeypatch, MultiTreeSubstrate, "__init__")
        specs = BUILTIN_SCENARIOS["fig02-smoke"]().expand(SMOKE)
        for spec in specs:
            execute_run(spec)
        (spec,) = {(s.topology_preset, s.topology_seed, s.num_nodes): s
                   for s in specs}.values()
        topology = build_topology(None, preset=spec.topology_preset,
                                  seed=spec.topology_seed, num_nodes=spec.num_nodes)
        kinds = topology.routing_cache.memo._kinds
        # the base tree (naive, base, ght and tree 0 of every substrate)
        # and the substrate's two further roots; one substrate per query
        assert len(trees) == len(kinds["tree"]) == 3
        assert len(substrates) == len(kinds["substrate"]) == 1
        assert {type(t) for t in kinds["tree"].values()} == {RoutingTree}
        assert len(specs) > 3 * len(trees)
        reset_workload_caches()

    def test_an_epoch_bump_drops_the_memo(self, topo100):
        topology = topo100.copy()
        JoinExecutor(build_query1(), topology, make_workload(topology, build_query1(), SEL),
                     make_strategy("innet-cmg"), SEL).initiate()
        memo = topology.routing_cache.memo
        assert memo._kinds["substrate"]
        topology.invalidate_routing_caches()
        assert topology.routing_cache.memo is not memo
        assert not topology.routing_cache.memo._kinds


class TestInitiationShipsAsOneBatch:
    @pytest.mark.parametrize("algorithm", INITIATION_ALGORITHMS)
    def test_lossless_initiation_is_one_flush_and_no_transfer(
            self, topo100, algorithm, monkeypatch):
        query = build_query1()
        topology = topo100.copy()
        data_source = make_workload(topology, query, SEL)
        for _ in range(2):  # a cold and a warm memo
            transfers = _count_calls(monkeypatch, NetworkSimulator, "transfer")
            flushes = _count_calls(monkeypatch, CycleBatcher, "flush")
            executor = JoinExecutor(query, topology, data_source,
                                    make_strategy(algorithm), SEL)
            traffic = executor.initiate()
            assert transfers == []
            assert len(flushes) == 1
            assert (traffic > 0) == (algorithm != "naive")

    @pytest.mark.parametrize("algorithm", INITIATION_ALGORITHMS + ("innet-cmpg",))
    def test_lossy_instrumented_initiation_equals_the_per_path_route(
            self, topo100, algorithm, per_tuple_cycles):
        """At loss 0.35 with energy and hotspot sinks, the batched initiation
        leaves the traffic views, the sink summaries and series, and the
        link model's RNG state exactly where per-path transfers leave
        them."""
        query = build_query1()
        topology = topo100.copy()
        data_source = make_workload(topology, query, SEL)

        def initiate():
            links = lossy_links(0.35, seed=11)
            executor = JoinExecutor(
                query, topology, data_source, make_strategy(algorithm), SEL,
                link_model=links, sinks=[EnergySink(), HotspotSink()])
            executor.initiate()
            stats = executor.simulator.stats
            pipeline = executor.simulator.pipeline
            return (
                stats.total(), stats.messages_dropped,
                sorted(stats.traffic_by_kind().items(), key=lambda kv: kv[0].value),
                stats.top_loaded_nodes(k=len(topology.nodes)),
                sorted(pipeline.summaries().items()),
                {name: sorted(series.items())
                 for name, series in pipeline.node_series().items()},
                links._rng.bit_generator.state,
            )

        batched = initiate()
        with per_tuple_cycles():
            per_path = initiate()
        assert batched == per_path
        assert batched[1] > 0 or algorithm == "naive"


class TestCopyOnRepair:
    def test_a_failure_run_leaves_later_runs_and_the_memo_untouched(self):
        """On one memoised topology, an innet-cmg run with a join-node
        failure, then a run without one: the second equals the same run on
        a fresh deployment, and the memo's trees equal fresh builds."""
        reset_workload_caches()
        specs = [replace(spec, algorithm="innet-cmg")
                 for spec in BUILTIN_SCENARIOS["fig14-smoke"]().expand(SMOKE)]
        failing = next(s for s in specs if s.label == "with_failure")
        plain = next(s for s in specs if s.label == "no_failure")
        failed = execute_run(failing).report
        assert failed.traffic_by_kind["tree_maint"] > 0   # the repair ran
        warm = execute_run(plain).report
        topology = build_topology(None, preset=plain.topology_preset,
                                  seed=plain.topology_seed, num_nodes=plain.num_nodes)
        memo_trees = topology.routing_cache.memo._kinds["tree"]
        assert memo_trees
        for (root, seed), tree in memo_trees.items():
            fresh = RoutingTree(topology, root=root, tie_break_seed=seed)
            assert _tree_shape(tree) == _tree_shape(fresh)
        reset_workload_caches()
        assert execute_run(plain).report == warm
        reset_workload_caches()

    def test_strategies_sharing_a_substrate_repair_private_copies(self, topo100):
        """Two innet-cmg runs on one topology share the memo's substrate; a
        node failure makes each repair (and charge) its own copy."""
        topology = topo100.copy()
        far, near = in_network_pair(topology)
        query = build_query0(source_id=far, target_id=near)
        data_source = make_workload(topology, query, Selectivities(1.0, 1.0, 0.2))
        executors = [
            JoinExecutor(query, topology, data_source, make_strategy("innet-cmg"), SEL)
            for _ in range(2)
        ]
        for executor in executors:
            executor.initiate()
        first, second = (executor.strategy for executor in executors)
        shared = first.substrate
        assert second.substrate is shared
        before = [_tree_shape(tree.copy()) for tree in shared.trees]
        # the node with the most children in the base tree: its orphans
        # re-attach, each with a charged beacon
        hub = max((n for n in topology.node_ids
                   if n not in (topology.base_id, far, near)),
                  key=lambda n: (len(shared.primary_tree.children_of(n)), -n))
        topology.nodes[hub].fail()
        repairs = []
        for executor in executors:
            stats = executor.simulator.stats
            total = stats.total()
            executor.strategy.handle_failures(executor.context, [hub], 5)
            repairs.append(stats.total() - total)
        assert repairs[0] == repairs[1] > 0
        assert first.substrate is not shared and second.substrate is not shared
        assert first.optimizer.substrate is first.substrate
        assert [_tree_shape(tree) for tree in shared.trees] == before
        assert all(not tree.covers(hub) for tree in second.substrate.trees)

    def test_service_sessions_repair_private_copies(self):
        """Two innet-cmg sessions share one substrate; after a relay on
        their pair's path fails, the service's counters read what they read
        when every session built and repaired its own substrate."""
        engine = ServiceEngine(ServiceConfig(num_nodes=60))
        far, near = in_network_pair(engine.topology)
        sessions = [
            engine.shared.attach(build_query0(source_id=far, target_id=near),
                                 make_strategy("innet-cmg"))
            for _ in range(2)
        ]
        first, second = (session.strategy for session in sessions)
        assert first.substrate is second.substrate
        relay = first.plan.decision_for(first.plan.pairs()[0]).source_to_join[1]
        engine.step(4)
        engine.apply_event({"type": "fail", "node": relay})
        engine.step(8)
        assert first.substrate is not second.substrate
        stats = engine.stats()
        assert (relay, stats["total_traffic"], stats["base_traffic"],
                stats["max_node_load"], stats["reoptimizations"],
                stats["deduped_shipments"]) == (20, 1445.0, 205.0, 338.0, 0, 32)


class TestNoRunKeptAlive:
    def test_the_memo_holds_no_simulator(self, monkeypatch):
        reset_workload_caches()
        simulators = []
        init = NetworkSimulator.__init__

        def recorded(self, *args, **kwargs):
            init(self, *args, **kwargs)
            simulators.append(weakref.ref(self))
        monkeypatch.setattr(NetworkSimulator, "__init__", recorded)
        spec = next(s for s in BUILTIN_SCENARIOS["fig02-smoke"]().expand(SMOKE)
                    if s.algorithm == "innet-cmg")
        execute_run(spec)
        gc.collect()
        topology = build_topology(None, preset=spec.topology_preset,
                                  seed=spec.topology_seed, num_nodes=spec.num_nodes)
        kinds = topology.routing_cache.memo._kinds
        assert kinds["substrate"] and kinds["exploration"] and kinds["static_pairs"]
        assert len(simulators) == 1
        assert simulators[0]() is None
        reset_workload_caches()

    def test_the_sample_memo_keeps_no_failure_run_topology(self, topo100, monkeypatch):
        """Two failure runs on one data source each run on a topology copy;
        the data source's sample memo must not keep either copy alive."""
        copies = []
        copy = Topology.copy

        def recorded(self):
            duplicate = copy(self)
            copies.append(weakref.ref(duplicate))
            return duplicate
        monkeypatch.setattr(Topology, "copy", recorded)
        query = build_query1()
        source = make_workload(topo100, query, SEL)
        reports = []
        for _ in range(2):
            injector = FailureInjector()
            injector.schedule(30, 3)
            reports.append(run_single(query, topo100, source, "innet-cmg", SEL,
                                      cycles=8, failure_injector=injector).report)
        assert source._sample_memo   # the runs sampled through the memo
        assert reports[0] == reports[1]
        gc.collect()
        assert len(copies) == 2
        assert all(ref() is None for ref in copies)

    def test_a_dead_or_different_topology_is_a_sample_memo_miss(self, topo100):
        """An entry whose weakly held topology is not the context's -- dead,
        or another object that took its id -- is sampled afresh."""
        query = build_query1()
        source = make_workload(topo100, query, SEL)
        ctx = ExecutionContext(query, analyze_query(query), topo100,
                               NetworkSimulator(topo100), source, SEL)
        producers = {alias: ProducerSet(members)
                     for alias, members in ctx.eligible().items()}
        cycles = range(0, 4)
        first = ctx.sample_producers(cycles, producers)
        memo = source._sample_memo
        blocks = [key for key, entry in memo.items()
                  if isinstance(entry, tuple) and isinstance(entry[-1], weakref.ref)]
        assert len(blocks) == len(producers)
        assert ctx.sample_producers(cycles, producers) == first
        assert all(a is b for a, b in zip(ctx.sample_producers(cycles, producers), first))
        other = topo100.copy()
        for key in blocks:
            memo[key] = (*memo[key][:2], weakref.ref(other))
        second = ctx.sample_producers(cycles, producers)
        assert not any(a is b for a, b in zip(second, first))
        assert all(memo[key][2]() is topo100 for key in blocks)
        for key in blocks:
            memo[key] = (*memo[key][:2], weakref.ref(other))
        del other
        gc.collect()
        third = ctx.sample_producers(cycles, producers)
        assert not any(a is b for a, b in zip(third, second))
        assert all(memo[key][2]() is topo100 for key in blocks)
