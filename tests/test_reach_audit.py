"""A line-reach audit: code no run of the program reaches stays out of ``src/``.

Once per test session, :data:`PARTS` concurrent subprocesses run the
program's production profile under ``sys.settrace`` (the standard library;
there is no ``coverage`` here):

* every built-in scenario at ``--scale smoke`` through the ``run-scenario``
  CLI (the ``-smoke`` variant where one exists) into a result store, then
  the same command again, which resumes every run from the store;
* an 8-query :class:`~repro.service.engine.ServiceEngine` session with
  submits, steps, cancels and a ``fail``, a ``move`` and a ``drift`` event,
  a submit while a node is dead, and three queries sharing an in-network
  group;
* one in-process ``serve()`` daemon round trip over its socket.

Executable lines are those ``co_lines()`` names in the compiled code of each
``src/`` module.  Two checks read the profile:

* every function no run enters must be on :data:`NEVER_ENTERED`, with its
  reason (an error path, a CLI or socket path, a ``bench/`` reader, a test
  oracle);
* each module's count of unreached lines must equal its
  :data:`UNREACHED_CEILING`.  Above it, new code no run reaches was added;
  below it, the ceiling must come down to match, so the lists only shrink.

Run this file as a script (``PYTHONPATH=src python tests/test_reach_audit.py
--report``) to print each module's unreached lines.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: The profile runs as this many concurrent subprocesses, each a share of
#: the scenarios, so it takes about half the wall time on two cores.
PARTS = 2

# Why code no run of the profile reaches stays in src/.
ERROR = "error path: raises on, or reports, bad input"
CLI = ("CLI or daemon path the profile does not take: --jobs, --figure, "
       "run-campaign, list-scenarios, scenario files, the service CLI")
BENCH = "read by bench/, benchmarks/ or the CI workflow"
EXAMPLE = "read by examples/"
ORACLE = "test oracle or test-only reader"
LOSSY = "lossy-link or per-tuple body (ROADMAP items 13 and 17)"
FAILURE = "failure handling of a strategy no built-in failure scenario runs"
SESSION = "reached only by longer daemon sessions (ticker, streaming quantiles)"
QUERY = "StreamSQL construct no built-in query uses (OR, NOT, literals, hash())"
EDGE = "edge case no profile run hits; its unit test holds it"
HOOK = "protocol, base-class or debugging method"

#: Functions no run of the profile enters, with why each stays.
NEVER_ENTERED: Dict[str, str] = {
    "repro.core.adaptive.PairObservation._rollover": EDGE,
    "repro.core.cost_model.AlgorithmCosts.total": ORACLE,
    "repro.core.cost_model.best_join_point_index": ORACLE,
    "repro.core.cost_model.ght_cost": ORACLE,
    "repro.core.cost_model.innet_cost": ORACLE,
    "repro.core.cost_model.through_base_pair_cost": ORACLE,
    "repro.engine.execution.execute_run_entry": CLI,
    "repro.engine.execution.initialize_worker": CLI,
    "repro.engine.pool.WorkerPool.__enter__": CLI,
    "repro.engine.pool.WorkerPool.__exit__": CLI,
    "repro.engine.pool.WorkerPool.__init__": CLI,
    "repro.engine.pool.WorkerPool.__repr__": HOOK,
    "repro.engine.pool.WorkerPool._ensure": CLI,
    "repro.engine.pool.WorkerPool.close": CLI,
    "repro.engine.pool.WorkerPool.imap_unordered": CLI,
    "repro.engine.pool.WorkerPool.started": CLI,
    "repro.engine.pool.WorkerPool.worker_pids": ORACLE,
    "repro.engine.pool.estimated_run_cost": CLI,
    "repro.engine.pool.reset_run_costs": ORACLE,
    "repro.engine.pool.shared_pool": CLI,
    "repro.engine.pool.shutdown_shared_pools": CLI,
    "repro.engine.pool.usable_cpus": CLI,
    "repro.engine.registry.Registry.builders": ORACLE,
    "repro.engine.registry.Registry.names": ERROR,
    "repro.engine.registry.available_algorithms": ORACLE,
    "repro.engine.registry.load_experiment_registrations": CLI,
    "repro.engine.registry.make_query": CLI,
    "repro.engine.registry.registry_generation": CLI,
    "repro.engine.spec.RunSpec.from_dict": ORACLE,
    "repro.engine.spec.ScenarioSpec.__eq__": HOOK,
    "repro.engine.spec.ScenarioSpec.__hash__": HOOK,
    "repro.engine.spec.ScenarioSpec.from_dict": CLI,
    "repro.engine.spec.ScenarioSpec.from_json": ORACLE,
    "repro.engine.spec.ScenarioSpec.spec_hash": ORACLE,
    "repro.engine.spec.ScenarioSpec.to_dict": ORACLE,
    "repro.engine.spec.ScenarioSpec.to_json": ORACLE,
    "repro.engine.spec.load_scenario_file": CLI,
    "repro.engine.store.ResultStore.__contains__": HOOK,
    "repro.engine.store.ResultStore.__enter__": BENCH,
    "repro.engine.store.ResultStore.__exit__": BENCH,
    "repro.engine.store.ResultStore.closed": BENCH,
    "repro.engine.store.ResultStore.flush": ORACLE,
    "repro.engine.store.ResultStore.journal_mode": ORACLE,
    "repro.engine.store.ResultStore.node_metrics": BENCH,
    "repro.engine.store.ResultStore.node_metrics_count": BENCH,
    "repro.engine.store.ResultStore.put": BENCH,
    "repro.engine.store.ResultStore.scenario_run_count": BENCH,
    "repro.engine.store.ResultStore.scenarios": BENCH,
    "repro.engine.store.StreamingWriter.__enter__": HOOK,
    "repro.engine.store.StreamingWriter.__exit__": HOOK,
    "repro.engine.store.StreamingWriter.pending": ORACLE,
    "repro.engine.workload.reset_workload_caches": BENCH,
    "repro.engine.workload.workload_cache_stats": ORACLE,
    "repro.experiments.cli._CampaignProgress.__call__": CLI,
    "repro.experiments.cli._CampaignProgress.__init__": CLI,
    "repro.experiments.cli._apply_metric_sinks.<locals>._name": CLI,
    "repro.experiments.cli._cmd_list_scenarios": CLI,
    "repro.experiments.cli._cmd_run_campaign": CLI,
    "repro.experiments.cli._positive_int": CLI,
    "repro.experiments.cli.build_list_scenarios_parser": CLI,
    "repro.experiments.cli.build_parser": CLI,
    "repro.experiments.cli.build_run_campaign_parser": CLI,
    "repro.experiments.report.campaign_rows": CLI,
    "repro.experiments.report.format_duration": CLI,
    "repro.experiments.report.sweep_node_series_count": CLI,
    "repro.experiments.scale_bench._measure_rung": BENCH,
    "repro.experiments.scale_bench._measure_rung.<locals>._run_spec": BENCH,
    "repro.experiments.scale_bench._rung_total_seconds": BENCH,
    "repro.experiments.scale_bench.main": BENCH,
    "repro.experiments.scenarios.available_scenarios": CLI,
    "repro.experiments.scenarios.figure_names": CLI,
    "repro.experiments.scenarios.figure_rows": CLI,
    "repro.experiments.scenarios.match_scenarios": CLI,
    "repro.experiments.scenarios.match_scenarios.<locals>._add": CLI,
    "repro.experiments.scenarios.register_scenario": HOOK,
    "repro.experiments.scenarios.scenario_files": CLI,
    "repro.joins.base.DataSource.sample": HOOK,
    "repro.joins.base.JoinStrategy.execute_cycle": HOOK,
    "repro.joins.base.JoinStrategy.execute_cycle_batch": HOOK,
    "repro.joins.base.JoinStrategy.handle_failures": HOOK,
    "repro.joins.base.JoinStrategy.initiate": HOOK,
    "repro.joins.base.JoinStrategy.join_nodes_used": HOOK,
    "repro.joins.base.ProducerSet.static_column": EDGE,
    "repro.joins.ght_join.GHTJoin._cycle": LOSSY,
    "repro.joins.ght_join.GHTJoin.execute_cycle": LOSSY,
    "repro.joins.ght_join.GHTJoin.handle_failures": FAILURE,
    "repro.joins.grouped_base.NaiveJoin.handle_failures": FAILURE,
    "repro.joins.through_base.ThroughBaseJoin._cycle": LOSSY,
    "repro.joins.through_base.ThroughBaseJoin.execute_cycle": LOSSY,
    "repro.joins.through_base.ThroughBaseJoin.handle_failures": FAILURE,
    "repro.metrics.available_sink_presets": ERROR,
    "repro.metrics.energy.EnergySink.charge_path": LOSSY,
    "repro.metrics.energy.EnergySink.charge_transmission": LOSSY,
    "repro.metrics.energy.EnergySink.reset": ORACLE,
    "repro.metrics.hotspot.HotspotSink.charge_path": LOSSY,
    "repro.metrics.hotspot.HotspotSink.charge_transmission": LOSSY,
    "repro.metrics.hotspot.HotspotSink.reset": ORACLE,
    "repro.metrics.latency.StreamingQuantile._linear": SESSION,
    "repro.metrics.latency.StreamingQuantile._parabolic": SESSION,
    "repro.metrics.pipeline.MetricsPipeline.reset": ORACLE,
    "repro.metrics.pipeline.MetricsSink.attach": HOOK,
    "repro.metrics.pipeline.MetricsSink.charge_broadcast": HOOK,
    "repro.metrics.pipeline.MetricsSink.charge_drop": HOOK,
    "repro.metrics.pipeline.MetricsSink.charge_path": HOOK,
    "repro.metrics.pipeline.MetricsSink.charge_paths_batch": HOOK,
    "repro.metrics.pipeline.MetricsSink.charge_transmission": HOOK,
    "repro.metrics.pipeline.MetricsSink.node_series": HOOK,
    "repro.metrics.pipeline.MetricsSink.on_sampling_cycle": HOOK,
    "repro.metrics.pipeline.MetricsSink.reset": HOOK,
    "repro.metrics.pipeline.MetricsSink.summary": HOOK,
    "repro.metrics.pipeline._fanout_charge_path.<locals>.emit": LOSSY,
    "repro.network.batch.CycleBatcher.ship_many": LOSSY,
    "repro.network.batch._segment_outcomes": LOSSY,
    "repro.network.failures.FailureInjector.schedule_fraction_of_run": EXAMPLE,
    "repro.network.links.LinkModel.attempt_hop": LOSSY,
    "repro.network.links.LinkModel.attempt_hops": LOSSY,
    "repro.network.links.LinkModel.expected_attempts": ORACLE,
    "repro.network.links.lossy_links": LOSSY,
    "repro.network.mobility.max_supported_speed": BENCH,
    "repro.network.node.SensorNode.__repr__": HOOK,
    "repro.network.node.SensorNode.get_attribute": ORACLE,
    "repro.network.node.SensorNode.recover": ORACLE,
    "repro.network.topology.CSRAdjacency.__repr__": HOOK,
    "repro.network.topology.CSRAdjacency.from_mapping": ORACLE,
    "repro.network.topology.CSRAdjacency.total_degree": EXAMPLE,
    "repro.network.topology.PathCache.approx_hops": BENCH,
    "repro.network.topology.PathCache.landmark_tables": BENCH,
    "repro.network.topology.Topology.average_degree": EXAMPLE,
    "repro.network.topology.Topology.base": ORACLE,
    "repro.network.topology.Topology.shortest_hops": ORACLE,
    "repro.network.traffic.TrafficStats.charge_transmission": LOSSY,
    "repro.network.traffic.TrafficStats.reset": ORACLE,
    "repro.network.traffic.TrafficStats.snapshot": BENCH,
    "repro.query.analysis.QueryAnalysis.producer_sends": ORACLE,
    "repro.query.analysis.QueryAnalysis.tuples_join": ORACLE,
    "repro.query.expressions.And.__str__": HOOK,
    "repro.query.expressions.And.closure": HOOK,
    "repro.query.expressions.And.compile_array": HOOK,
    "repro.query.expressions.And.referenced_attributes": HOOK,
    "repro.query.expressions.AttributeRef.__str__": HOOK,
    "repro.query.expressions.BinaryOp.__str__": HOOK,
    "repro.query.expressions.BoolLiteral.__str__": HOOK,
    "repro.query.expressions.BoolLiteral.closure": QUERY,
    "repro.query.expressions.BoolLiteral.compile_array": QUERY,
    "repro.query.expressions.BoolLiteral.referenced_attributes": QUERY,
    "repro.query.expressions.Comparison.__str__": HOOK,
    "repro.query.expressions.Comparison.negated": QUERY,
    "repro.query.expressions.Expression.closure": HOOK,
    "repro.query.expressions.Expression.compile_array": HOOK,
    "repro.query.expressions.Expression.evaluate": HOOK,
    "repro.query.expressions.Expression.referenced_attributes": HOOK,
    "repro.query.expressions.FunctionCall.__str__": HOOK,
    "repro.query.expressions.Literal.__str__": HOOK,
    "repro.query.expressions.Not.__str__": HOOK,
    "repro.query.expressions.Not.closure": QUERY,
    "repro.query.expressions.Not.compile_array": QUERY,
    "repro.query.expressions.Not.referenced_attributes": QUERY,
    "repro.query.expressions.Or.__init__": QUERY,
    "repro.query.expressions.Or.__str__": HOOK,
    "repro.query.expressions.Or.closure": QUERY,
    "repro.query.expressions.Or.compile_array": QUERY,
    "repro.query.expressions.Or.referenced_attributes": QUERY,
    "repro.query.expressions._fold.<locals>.folded": QUERY,
    "repro.query.expressions.evaluate": EXAMPLE,
    "repro.query.expressions.hash16": QUERY,
    "repro.query.schema.RelationSchema.__len__": HOOK,
    "repro.query.window.JoinState.__post_init__": BENCH,
    "repro.query.window.JoinState.buffered_tuple_count": BENCH,
    "repro.query.window.JoinState.export_state": BENCH,
    "repro.query.window.JoinState.import_state": BENCH,
    "repro.query.window.JoinState.probe": BENCH,
    "repro.query.window.TupleWindow.__init__": BENCH,
    "repro.query.window.TupleWindow.__iter__": HOOK,
    "repro.query.window.TupleWindow.__len__": HOOK,
    "repro.query.window.TupleWindow.clear": BENCH,
    "repro.query.window.TupleWindow.contents": BENCH,
    "repro.query.window.TupleWindow.export_state": BENCH,
    "repro.query.window.TupleWindow.import_state": BENCH,
    "repro.query.window.TupleWindow.insert": BENCH,
    "repro.query.window.TupleWindow.is_empty": BENCH,
    "repro.query.window.WindowStore.window": ORACLE,
    "repro.query.window.WindowedTuple.value": ORACLE,
    "repro.routing.semantic.SemanticRoutingTable._summary": ORACLE,
    "repro.routing.semantic.SemanticRoutingTable.child_summary": ORACLE,
    "repro.routing.semantic.SemanticRoutingTable.subtree_might_match": ORACLE,
    "repro.routing.semantic.SemanticRoutingTable.subtree_summary": ORACLE,
    "repro.routing.semantic.SemanticRoutingTable.total_maintenance_bytes": ORACLE,
    "repro.routing.semantic._BloomRows.summary": ORACLE,
    "repro.routing.semantic._RectRows.summary": ORACLE,
    "repro.routing.tree.RoutingTree.__repr__": HOOK,
    "repro.routing.tree.RoutingTree.children_of": ORACLE,
    "repro.service.cli._add_endpoint": CLI,
    "repro.service.cli._serve": CLI,
    "repro.service.cli.build_parser": CLI,
    "repro.service.cli.main": CLI,
    "repro.service.client.ServiceClient.cancel": CLI,
    "repro.service.client.ServiceClient.event": CLI,
    "repro.service.daemon.ServiceDaemon.start_ticker.<locals>.tick": SESSION,
    "repro.summaries.base.Summary.add": ORACLE,
    "repro.summaries.base.Summary.add_all": ORACLE,
    "repro.summaries.base.Summary.copy": ORACLE,
    "repro.summaries.base.Summary.merge": ORACLE,
    "repro.summaries.base.Summary.might_contain": ORACLE,
    "repro.summaries.base.Summary.size_bytes": ORACLE,
    "repro.summaries.bloom.BloomFilterSummary.__contains__": HOOK,
    "repro.summaries.bloom.BloomFilterSummary.__repr__": HOOK,
    "repro.summaries.bloom.BloomFilterSummary._positions": ORACLE,
    "repro.summaries.bloom.BloomFilterSummary.add": ORACLE,
    "repro.summaries.bloom.BloomFilterSummary.approximate_items": ORACLE,
    "repro.summaries.bloom.BloomFilterSummary.copy": ORACLE,
    "repro.summaries.bloom.BloomFilterSummary.fill_ratio": ORACLE,
    "repro.summaries.bloom.BloomFilterSummary.is_empty": ORACLE,
    "repro.summaries.bloom.BloomFilterSummary.merge": ORACLE,
    "repro.summaries.rect.Rect.contains": ORACLE,
    "repro.summaries.rect.Rect.expand": ORACLE,
    "repro.summaries.rect.Rect.from_point": ORACLE,
    "repro.summaries.rect.RectSummary.add": ORACLE,
    "repro.summaries.rect.RectSummary.bounding_rect": ORACLE,
    "repro.summaries.rect.RectSummary.copy": ORACLE,
    "repro.summaries.rect.RectSummary.is_empty": ORACLE,
    "repro.summaries.rect.RectSummary.merge": ORACLE,
    "repro.summaries.rect.RectSummary.might_contain": ORACLE,
    "repro.workloads.datasource.SyntheticDataSource.sample": ORACLE,
    "repro.workloads.datasource.SyntheticDataSource.sample_many": BENCH,
    "repro.workloads.datasource._mix": ORACLE,
    "repro.workloads.datasource._uniform": ORACLE,
    "repro.workloads.intel.intel_query3_workload": ORACLE,
}

#: Per-module count of executable lines no run of the profile reaches, with
#: the main reason they stay.
UNREACHED_CEILING: Dict[str, Tuple[int, str]] = {
    "repro.core.adaptive": (13, ERROR),
    "repro.core.centralized": (3, ERROR),
    "repro.core.cost_model": (35, ORACLE),
    "repro.core.group_opt": (4, ERROR),
    "repro.core.optimizer": (2, ORACLE),
    "repro.engine.execution": (19, CLI),
    "repro.engine.pool": (62, CLI),
    "repro.engine.registry": (17, CLI),
    "repro.engine.results": (9, ERROR),
    "repro.engine.runner": (13, ERROR),
    "repro.engine.spec": (111, CLI),
    "repro.engine.store": (51, BENCH),
    "repro.engine.workload": (15, ERROR),
    "repro.experiments.__main__": (5, CLI),
    "repro.experiments.cli": (169, CLI),
    "repro.experiments.figures_crossover": (1, ERROR),
    "repro.experiments.figures_joins": (1, ERROR),
    "repro.experiments.figures_substrate": (11, ERROR),
    "repro.experiments.report": (45, CLI),
    "repro.experiments.scale_bench": (175, BENCH),
    "repro.experiments.scenarios": (52, CLI),
    "repro.joins.base": (20, ERROR),
    "repro.joins.executor": (4, ERROR),
    "repro.joins.ght_join": (56, LOSSY),
    "repro.joins.grouped_base": (21, LOSSY),
    "repro.joins.innet": (36, LOSSY),
    "repro.joins.multicast": (6, ERROR),
    "repro.joins.stepping": (9, ERROR),
    "repro.joins.through_base": (55, LOSSY),
    "repro.metrics": (15, ERROR),
    "repro.metrics.energy": (44, LOSSY),
    "repro.metrics.hotspot": (36, LOSSY),
    "repro.metrics.latency": (40, SESSION),
    "repro.metrics.pipeline": (27, HOOK),
    "repro.network.batch": (60, LOSSY),
    "repro.network.failures": (4, ERROR),
    "repro.network.links": (39, LOSSY),
    "repro.network.mobility": (12, ERROR),
    "repro.network.node": (8, ERROR),
    "repro.network.simulator": (17, LOSSY),
    "repro.network.topology": (72, BENCH),
    "repro.network.traffic": (35, LOSSY),
    "repro.query.analysis": (39, ERROR),
    "repro.query.cnf": (23, QUERY),
    "repro.query.expressions": (88, QUERY),
    "repro.query.parser": (35, ERROR),
    "repro.query.query": (3, ERROR),
    "repro.query.schema": (6, ERROR),
    "repro.query.window": (52, BENCH),
    "repro.routing.dht": (2, ERROR),
    "repro.routing.ght": (4, ERROR),
    "repro.routing.multitree": (11, ERROR),
    "repro.routing.paths": (4, ERROR),
    "repro.routing.semantic": (44, ORACLE),
    "repro.routing.tree": (10, ERROR),
    "repro.service.__main__": (4, CLI),
    "repro.service.churn": (3, ERROR),
    "repro.service.cli": (119, CLI),
    "repro.service.client": (8, CLI),
    "repro.service.daemon": (22, SESSION),
    "repro.service.engine": (11, ERROR),
    "repro.summaries.base": (2, HOOK),
    "repro.summaries.bloom": (41, ORACLE),
    "repro.summaries.rect": (23, ORACLE),
    "repro.workloads.datasource": (30, ORACLE),
    "repro.workloads.intel": (9, ORACLE),
    "repro.workloads.queries": (2, ERROR),
    "repro.workloads.selectivity": (2, ERROR),
}


# ---------------------------------------------------------------------------
# the profile (runs in the subprocess)
# ---------------------------------------------------------------------------

def _install_tracer(reached: Dict[str, Set[int]], entered: Set[Tuple[str, str]]) -> None:
    """Record every line and every call of ``src/`` code, in every thread."""
    import threading

    prefix = str(SRC) + os.sep
    tracers: Dict[object, object] = {}   # code -> its line tracer, or None

    def trace(frame, event, arg):
        code = frame.f_code
        try:
            local = tracers[code]
        except KeyError:
            local = None
            if code.co_filename.startswith(prefix):
                add = reached.setdefault(code.co_filename, set()).add

                def local(frame, event, arg):
                    if event == "line":
                        add(frame.f_lineno)
                    return local

                entered.add((code.co_filename, code.co_qualname))
            tracers[code] = local
        if local is not None:
            reached[code.co_filename].add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)


def _service_session() -> None:
    from repro.service.churn import churn_query
    from repro.service.engine import ServiceConfig, ServiceEngine

    engine = ServiceEngine(ServiceConfig(num_nodes=80, default_algorithm="innet-cmg"))
    for slot in range(8):
        name, sql = churn_query(slot, seed=0, num_nodes=80)
        engine.submit(sql=sql, name=name)
    engine.step(10)
    engine.cancel(2)
    engine.cancel(5)
    engine.apply_event({"type": "fail", "node": 17})
    engine.step(5)
    name, sql = churn_query(8, seed=0, num_nodes=80)
    engine.submit(sql=sql, name=name)   # admitted with a dead node
    engine.apply_event({"type": "move", "node": "leaf"})
    engine.step(5)
    engine.apply_event({"type": "drift", "sigma_st": 0.1})
    engine.step(5)
    engine.query_status(1)
    engine.status()
    engine.stats()
    engine.reopt_summary()
    # two queries own one pair, then a third regroups it with a new pair:
    # the group joins in-network and the second owner takes the first's
    # placement
    engine = ServiceEngine(ServiceConfig(num_nodes=80, default_algorithm="innet-cmg"))
    for target in (2, 2, 3):
        engine.submit(sql="SELECT S.id, T.id FROM S, T [windowsize=1] "
                          f"WHERE S.id = 1 AND T.id = {target} AND S.u = T.u")


def _daemon_round_trip(stdout) -> None:
    import threading
    import time

    from repro.service.client import ServiceClient
    from repro.service.daemon import serve
    from repro.service.engine import ServiceConfig

    outcome = {}
    thread = threading.Thread(
        target=lambda: outcome.update(code=serve(port=0, config=ServiceConfig(num_nodes=40))),
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 60.0
    while "SERVICE READY" not in stdout.getvalue():
        assert time.monotonic() < deadline, "the daemon never announced itself"
        time.sleep(0.01)
    line = next(l for l in stdout.getvalue().splitlines() if l.startswith("SERVICE READY"))
    port = int(dict(part.split("=", 1) for part in line.split()[2:])["port"])
    client = ServiceClient("127.0.0.1", port)
    client.ping()
    client.submit(sql="SELECT S.id, T.id FROM S, T [windowsize=2] "
                      "WHERE S.id < 10 AND T.id > 30 AND S.u = T.u")
    client.step(3)
    client.query_status(1)
    client.status()
    client.stats()
    client.shutdown()
    thread.join(timeout=30.0)
    assert outcome.get("code") == 0


def _profile(out: Path, store: Path, part: int) -> None:
    """Part *part* of :data:`PARTS`: every PARTS-th built-in scenario; the
    last part also runs the service session and the daemon round trip."""
    import contextlib
    import io

    reached: Dict[str, Set[int]] = {}
    entered: Set[Tuple[str, str]] = set()
    _install_tracer(reached, entered)

    from repro.experiments.cli import main
    from repro.experiments.scenarios import BUILTIN_SCENARIOS

    names = [name for name in sorted(BUILTIN_SCENARIOS)
             if f"{name}-smoke" not in BUILTIN_SCENARIOS][part::PARTS]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        for _ in range(2):   # the second pass resumes every run from the store
            code = main(["run-scenario", *names, "--scale", "smoke",
                         "--store", str(store)])
            assert code == 0, f"run-scenario exited {code}"
        if part == PARTS - 1:
            _service_session()
            _daemon_round_trip(stdout)
    sys.settrace(None)
    out.write_text(json.dumps({
        "reached": {name: sorted(lines) for name, lines in reached.items()},
        "entered": sorted(entered),
    }))


# ---------------------------------------------------------------------------
# executable code (read in the test process)
# ---------------------------------------------------------------------------

def _code_objects(code) -> Iterator:
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _module_name(path: Path, root: Path) -> str:
    parts = [p for p in path.relative_to(root).with_suffix("").parts if p != "__init__"]
    return ".".join(parts)


def executable_code(root: Path = SRC) -> Iterator[Tuple[Path, str, Set[int], List]]:
    """``(path, module, executable lines, function code objects)`` per module."""
    for path in sorted(root.rglob("*.py")):
        module_code = compile(path.read_text(), str(path), "exec")
        lines: Set[int] = set()
        functions = []
        for code in _code_objects(module_code):
            lines.update(line for _, _, line in code.co_lines() if line is not None)
            if code is not module_code and not code.co_name.startswith("<") \
                    and code.co_flags & 0x2:   # CO_NEWLOCALS: a function, not a class body
                functions.append(code)
        yield path, _module_name(path, root), lines, functions


def run_profile(tmp: Path) -> dict:
    """The profile's reached lines and entered functions, its parts merged."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    outs = [tmp / f"reach-{part}.json" for part in range(PARTS)]
    children = [subprocess.Popen([sys.executable, __file__, "--profile", str(out),
                                  str(tmp / f"store-{part}.sqlite"), str(part)],
                                 env=env, cwd=tmp)
                for part, out in enumerate(outs)]
    for child in children:
        assert child.wait(timeout=600) == 0, "a profile part failed"
    reached: Dict[str, Set[int]] = {}
    entered: Set[Tuple[str, str]] = set()
    for out in outs:
        part = json.loads(out.read_text())
        for name, lines in part["reached"].items():
            reached.setdefault(name, set()).update(lines)
        entered.update(map(tuple, part["entered"]))
    return {"reached": {name: sorted(lines) for name, lines in reached.items()},
            "entered": sorted(entered)}


def audit(profile: dict, root: Path = SRC) -> Tuple[Dict[str, List[int]], List[str]]:
    """Unreached lines per module and the qualified names never entered."""
    reached = {Path(name): set(lines) for name, lines in profile["reached"].items()}
    entered = {(Path(name), qualname) for name, qualname in profile["entered"]}
    unreached: Dict[str, List[int]] = {}
    never_entered: Set[str] = set()
    for path, module, lines, functions in executable_code(root):
        missing = sorted(lines - reached.get(path, set()))
        if missing:
            unreached[module] = missing
        # by qualified name: one entered definition covers its namesakes
        never_entered.update(f"{module}.{code.co_qualname}" for code in functions
                             if (path, code.co_qualname) not in entered)
    return unreached, sorted(never_entered)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def profile(tmp_path_factory) -> dict:
    return run_profile(tmp_path_factory.mktemp("reach"))


@pytest.fixture(scope="module")
def audited(profile) -> Tuple[Dict[str, List[int]], List[str]]:
    return audit(profile)


def test_every_function_no_run_enters_is_allow_listed(audited):
    _, never_entered = audited
    unexpected = sorted(set(never_entered) - set(NEVER_ENTERED))
    stale = sorted(set(NEVER_ENTERED) - set(never_entered))
    assert not unexpected, (
        "functions no run of the profile enters: delete them, or allow-list "
        f"them with their reason: {unexpected}")
    assert not stale, f"allow-listed functions a run now enters; drop them: {stale}"


def test_unreached_lines_match_each_module_ceiling(audited):
    unreached, _ = audited
    counts = {module: len(lines) for module, lines in unreached.items()}
    ceilings = {module: ceiling for module, (ceiling, _) in UNREACHED_CEILING.items()}
    above = {m: (n, ceilings.get(m, 0)) for m, n in counts.items() if n > ceilings.get(m, 0)}
    below = {m: (counts.get(m, 0), c) for m, c in ceilings.items() if counts.get(m, 0) < c}
    assert not above, (
        "modules with more unreached lines than their ceiling (count, ceiling); "
        f"see `python tests/test_reach_audit.py --report`: {above}")
    assert not below, (
        f"modules below their ceiling (count, ceiling); lower the ceiling: {below}")


def _copy_of_src(tmp_path: Path) -> Path:
    copy = tmp_path / "src"
    for path in SRC.rglob("*.py"):
        target = copy / path.relative_to(SRC)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(path.read_text())
    return copy


def test_a_planted_unreachable_branch_fails_the_audit(profile, audited, tmp_path):
    """A branch no run takes, planted in a function every run enters, raises
    its module above the ceiling and nothing else moves."""
    copy = _copy_of_src(tmp_path)
    relative = Path("repro/network/simulator.py")
    planted = copy / relative
    text = planted.read_text()
    anchor = "        self.sampling_cycle += 1\n"
    assert anchor in text
    planted.write_text(text.replace(
        anchor, anchor + "        if self.sampling_cycle < 0:\n            self.sampling_cycle = 0\n"))
    # the profile's reached lines, moved to the copy: every line after the
    # plant shifts by two, and every call evaluates the planted condition
    anchor_line = text[:text.index(anchor)].count("\n") + 1
    reached = {}
    for name, lines in profile["reached"].items():
        path = copy / Path(name).relative_to(SRC)
        if path == planted:
            assert anchor_line in lines
            lines = [l if l <= anchor_line else l + 2 for l in lines] + [anchor_line + 1]
        reached[str(path)] = lines
    entered = [[str(copy / Path(name).relative_to(SRC)), q] for name, q in profile["entered"]]
    unreached, never_entered = audit({"reached": reached, "entered": entered}, copy)
    baseline, baseline_entered = audited
    assert never_entered == baseline_entered
    module = "repro.network.simulator"
    assert len(unreached.get(module, [])) == len(baseline.get(module, [])) + 1
    assert len(unreached[module]) > UNREACHED_CEILING[module][0]


def test_a_planted_function_no_run_enters_fails_the_audit(profile, audited, tmp_path):
    """A function no run calls, appended to a module every run imports, is
    never entered and on no allow-list; only its body goes unreached."""
    copy = _copy_of_src(tmp_path)
    planted = copy / "repro/network/simulator.py"
    text = planted.read_text()
    planted.write_text(text + "\n\ndef planted_helper():\n    return None\n")
    def_line = text.count("\n") + 3
    # the profile's reached lines, moved to the copy; importing the module
    # runs the planted ``def`` statement
    reached = {}
    for name, lines in profile["reached"].items():
        path = copy / Path(name).relative_to(SRC)
        reached[str(path)] = lines + [def_line] if path == planted else lines
    entered = [[str(copy / Path(name).relative_to(SRC)), q] for name, q in profile["entered"]]
    unreached, never_entered = audit({"reached": reached, "entered": entered}, copy)
    baseline, baseline_entered = audited
    name = "repro.network.simulator.planted_helper"
    assert never_entered == sorted(baseline_entered + [name])
    assert name not in NEVER_ENTERED
    module = "repro.network.simulator"
    assert unreached[module] == sorted(baseline.get(module, []) + [def_line + 1])


def _report(profile: dict) -> None:
    unreached, never_entered = audit(profile)
    total = sum(len(lines) for _, _, lines, _ in executable_code())
    for module, lines in sorted(unreached.items()):
        print(f"{module}: {len(lines)} unreached: {lines}")
    print(f"{sum(map(len, unreached.values()))} of {total} executable src/ lines unreached; "
          f"{len(never_entered)} functions never entered")
    print(json.dumps({m: len(l) for m, l in sorted(unreached.items())}, indent=4))
    print(json.dumps(never_entered, indent=4))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--profile"]:
        _profile(Path(sys.argv[2]), Path(sys.argv[3]), int(sys.argv[4]))
    elif sys.argv[1:2] == ["--report"]:
        import tempfile

        with tempfile.TemporaryDirectory() as scratch:
            _report(run_profile(Path(scratch)))
    else:
        sys.exit("usage: test_reach_audit.py --report | --profile OUT STORE PART")
