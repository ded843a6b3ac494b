"""An audit that keeps code the program never runs out of ``src/``.

It reads the source with ``ast`` (files opened through ``tokenize``, so a
coding cookie is honoured) and fails on three things:

* a function, class or method in ``src/`` that nothing in ``src/``
  references beyond its own definition and body, unless it is
  decorator-registered (``@register_*``);
* a defaulted parameter of a ``src/`` callable that no call site in
  ``src/``, ``tests/``, ``bench/``, ``benchmarks/`` or ``examples/`` passes,
  by keyword or by position;
* a dataclass field that no ``src/`` code reads, beyond its own class's
  validation guards (``if <test>: raise``); an in-place update such as
  ``x.count += 1`` is not a read.

Matching is by name, so it errs towards "referenced": a name shared by two
definitions counts for both.  Imports and ``__all__`` are not references.
Exceptions go on the allow-lists below, each entry naming its reader; an
entry the audit would no longer flag fails the audit, so the lists only
shrink.
"""

from __future__ import annotations

import ast
import textwrap
import tokenize
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
#: Directories besides src/ whose call sites count as passing a parameter.
CALLER_DIRS = ("tests", "bench", "benchmarks", "examples")

#: Definitions nothing in src/ references, each with the reader that keeps it.
ALLOWED_DEFS: Dict[str, str] = {
    # the cost model's closed forms: oracles the placement tests hold the
    # optimizer and the measured traffic to
    "repro.core.cost_model.innet_cost": "cost-model oracle: tests/core/test_cost_model.py",
    "repro.core.cost_model.ght_cost": "cost-model oracle: tests/core/test_cost_model.py",
    "repro.core.cost_model.through_base_pair_cost":
        "cost-model oracle: tests/core/test_cost_model.py",
    "repro.core.cost_model.best_join_point_index":
        "cost-model oracle: tests/core/test_cost_model.py",
    # read by the benchmark, the CI workflow or the examples
    "repro.engine.store.ResultStore.closed": "bench/run.py, bench/workloads.py",
    "repro.engine.store.ResultStore.put": "bench/trace.py (store write span)",
    "repro.engine.store.ResultStore.scenario_run_count": ".github/workflows/ci.yml",
    "repro.engine.store.ResultStore.node_metrics": ".github/workflows/ci.yml",
    "repro.engine.store.ResultStore.node_metrics_count": ".github/workflows/ci.yml",
    "repro.engine.store.ResultStore.scenarios": "bench/workloads.py, tests/engine/test_store.py",
    "repro.engine.workload.reset_workload_caches": "bench/run.py, bench/workloads.py",
    "repro.network.topology.PathCache.approx_hops":
        "bench/workloads.py via scale_bench's landmark tables",
    "repro.workloads.datasource.SyntheticDataSource.sample_many":
        "bench/trace.py (workloads.sample span)",
    "repro.query.window.JoinState":
        "bench/trace.py (query.probe span), tests/query/test_window.py",
    "repro.network.failures.FailureInjector.schedule_fraction_of_run":
        "examples/datacenter_monitoring.py",
    "repro.query.expressions.evaluate": "examples/streamsql_and_cost_model.py",
    "repro.experiments.scenarios.register_scenario":
        "public hook for user scenarios: tests/experiments/test_cli.py",
    "repro.service.daemon._RequestHandler.handle": "socketserver calls it per connection",
    # the Summary protocol: the object oracle merges, the array tests compare
    "repro.summaries.base.Summary.merge": "tests/routing/semantic_oracle.py",
    "repro.summaries.bloom.BloomFilterSummary.merge": "tests/routing/semantic_oracle.py",
    "repro.summaries.rect.RectSummary.merge": "tests/routing/semantic_oracle.py",
    "repro.summaries.rect.RectSummary.bounding_rect": "tests/routing/test_semantic_array.py",
    "repro.summaries.bloom.BloomFilterSummary.approximate_items":
        "tests/routing/test_semantic_array.py",
    "repro.routing.semantic.SemanticRoutingTable.child_summary":
        "tests/routing/test_semantic_array.py",
    "repro.routing.semantic.SemanticRoutingTable.subtree_summary":
        "tests/routing/test_semantic_array.py",
    "repro.routing.semantic.SemanticRoutingTable.subtree_might_match":
        "tests/routing/test_semantic_array.py",
    "repro.routing.semantic.SemanticRoutingTable.total_maintenance_bytes":
        "tests/routing/test_semantic_array.py",
    "repro.routing.tree.RoutingTree.children_of": "tests/routing/semantic_oracle.py",
    # read by tests only; candidates for deletion or a move into tests/
    "repro.engine.pool.WorkerPool.worker_pids": "tests/engine/test_pool.py",
    "repro.engine.pool.reset_run_costs":
        "tests/engine/test_pool.py, benchmarks/test_perf_sweep.py",
    "repro.engine.registry.Registry.builders": "tests/engine/test_pool.py",
    "repro.engine.registry.available_algorithms": "tests/experiments/test_harness.py",
    "repro.engine.spec.ScenarioSpec.to_json": "tests/engine/test_spec.py",
    "repro.engine.spec.ScenarioSpec.from_json": "tests/engine/test_spec.py",
    "repro.engine.store.ResultStore.journal_mode": "tests/engine/test_store.py",
    "repro.engine.workload.workload_cache_stats": "tests/engine/test_runner.py",
    "repro.network.links.LinkModel.expected_attempts": "tests/network/test_links.py",
    "repro.network.mobility.max_supported_speed": "benchmarks/test_appg_mobility.py",
    "repro.network.node.SensorNode.get_attribute": "tests/network/test_node.py",
    "repro.network.node.SensorNode.recover": "tests/network/test_path_cache.py",
    "repro.network.topology.CSRAdjacency.from_mapping": "tests/network/test_topology.py",
    "repro.network.topology.Topology.shortest_hops": "tests/network/test_topology.py",
    "repro.network.traffic.TrafficStats.snapshot": "benchmarks/test_perf_transport.py",
    "repro.query.analysis.QueryAnalysis.producer_sends": "tests/joins/test_result_oracle.py",
    "repro.query.analysis.QueryAnalysis.tuples_join": "tests/joins/test_result_oracle.py",
    "repro.query.window.JoinState.buffered_tuple_count": "tests/query/test_window.py",
    "repro.query.window.JoinState.export_state": "tests/query/test_window.py",
    "repro.query.window.JoinState.import_state": "tests/query/test_window.py",
    "repro.workloads.intel.intel_query3_workload": "tests/joins/test_strategies.py",
}

#: Defaulted parameters no call site passes, each with its reader.
ALLOWED_PARAMS: Dict[str, str] = {
    # the cost model's formula inputs, stated as in the paper
    "repro.core.cost_model.innet_cost(c_s)": "cost-model oracle (Table 3 formula input)",
    "repro.core.cost_model.innet_cost(c_t)": "cost-model oracle (Table 3 formula input)",
    "repro.core.cost_model.ght_cost(c_s)": "cost-model oracle (Table 3 formula input)",
    "repro.core.cost_model.ght_cost(c_t)": "cost-model oracle (Table 3 formula input)",
    "repro.core.cost_model.through_base_cost(num_source)":
        "cost-model formula input; the costmodel-validation run kind uses the default",
    "repro.core.cost_model.through_base_cost(num_target)":
        "cost-model formula input; the costmodel-validation run kind uses the default",
    "repro.core.centralized.centralized_initiation(sizes)": "fig06's centralized run kind",
    "repro.core.centralized.centralized_initiation(neighbor_entry_bytes)":
        "fig06's centralized run kind (message-size constant)",
    "repro.core.centralized.centralized_initiation(attribute_bytes)":
        "fig06's centralized run kind (message-size constant)",
    # scenario factories: BUILTIN_SCENARIOS builds each with its defaults
    "repro.experiments.figures_crossover.strategy_crossover_scenario(algorithms)":
        "BUILTIN_SCENARIOS (strategy-crossover)",
    "repro.experiments.figures_crossover.crossover_rows(baseline)":
        "the strategy-crossover row shaper",
    "repro.experiments.figures_joins.fig06_scenario(num_pairs)": "BUILTIN_SCENARIOS (fig06)",
    "repro.experiments.figures_service.query_churn_scenario(strategy)":
        "BUILTIN_SCENARIOS (query-churn)",
    # topology and workload generators: the presets rely on the defaults
    "repro.network.topology.random_topology(max_attempts)":
        "connectivity retry bound; tests/network/topology_oracle.py mirrors it",
    "repro.network.topology.topology_from_preset(area_size)":
        "build_topology's presets (the paper's 256 m field)",
    "repro.network.topology.intel_lab_topology(radio_range)": "the intel preset",
    "repro.network.topology.intel_lab_topology(name)": "the intel preset",
    "repro.workloads.intel.intel_query3_workload(radius_m)": "tests/joins/test_strategies.py",
    "repro.workloads.intel.intel_query3_workload(difference_threshold)":
        "tests/joins/test_strategies.py",
    "repro.workloads.intel.intel_query3_workload(window_size)": "tests/joins/test_strategies.py",
    "repro.workloads.intel.measure_dynamic_join_selectivity(radius_m)":
        "fig13's selectivity measurement",
    "repro.workloads.intel.measure_dynamic_join_selectivity(difference_threshold)":
        "fig13's selectivity measurement",
    "repro.workloads.queries.build_query2(window_size)": "the query2 registration",
    "repro.query.schema._dynamic(kind)": "SENSOR_SCHEMA's attribute table",
    "repro.network.mobility.max_supported_speed(seconds_per_cycle)":
        "benchmarks/test_appg_mobility.py",
    "repro.routing.tree.RoutingTree.repair_after_failure(beacon_bytes)":
        "failure repair (the tree beacon's size)",
    "repro.engine.spec.ScenarioSpec.to_json(indent)": "tests/engine/test_spec.py",
    "repro.engine.store.ResultStore.node_metrics(sink)": ".github/workflows/ci.yml",
}

#: Dataclass fields no src/ code reads, each with its reader.
ALLOWED_FIELDS: Dict[str, str] = {
    "repro.core.adaptive.PairObservation.rollovers": "tests/core/test_observation_cap.py",
    "repro.network.mobility.MobilityEvent.old_position":
        "tests/network/test_failures_mobility.py",
    "repro.network.mobility.MobilityEvent.new_position":
        "tests/network/test_failures_mobility.py",
    "repro.query.analysis.QueryAnalysis.secondary_static_join_clauses":
        "tests/query/test_parser_analysis.py",
    "repro.query.window.WindowedTuple.producer_id": "tests/query/test_window.py",
    "repro.query.window.JoinState.source_id": "tests/query/test_window.py",
    "repro.query.window.JoinState.target_id": "tests/query/test_window.py",
}


# ---------------------------------------------------------------------------
# reading the tree
# ---------------------------------------------------------------------------

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    with tokenize.open(path) as handle:
        return ast.parse(handle.read(), filename=str(path))


def _modules(root: Path) -> Iterator[Tuple[str, ast.Module]]:
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).with_suffix("")
        parts = [p for p in relative.parts if p != "__init__"]
        yield ".".join(parts), _parse(path)


def _definitions(module: str, tree: ast.Module) -> Iterator[Tuple[str, ast.AST, str]]:
    """``(qualname, node, enclosing class or "")`` for module- and class-level defs."""
    def walk(body, prefix, cls):
        for node in body:
            if isinstance(node, _DEFS):
                yield f"{prefix}.{node.name}", node, cls
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}.{node.name}", node.name)
    yield from walk(tree.body, module, "")


def _is_all(node: ast.AST) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _decorator_name(decorator: ast.AST) -> str:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(target, ast.Attribute):
        return target.attr
    return target.id if isinstance(target, ast.Name) else ""


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_registered(node: ast.AST) -> bool:
    return any(_decorator_name(d).startswith("register") for d in node.decorator_list)


class Tree:
    """The parsed source of ``src/`` plus the call sites of the other modules."""

    def __init__(self, src: Dict[str, ast.Module], callers: List[ast.Module]) -> None:
        self.src = src
        # names src/ mentions, and per definition how often its own body
        # mentions its name (recursion is not a reference)
        self.references: Counter = Counter()
        self.own_mentions: Counter = Counter()
        # attribute name -> where src/ loads it: the class whose validation
        # guard (``if <test>: raise``) reads it, or None for any other code
        self.reads: Dict[str, Set] = defaultdict(set)
        # callee name -> keywords passed, most positionals, whether splatted
        self.keywords: Dict[str, Set[str]] = defaultdict(set)
        self.positionals: Dict[str, int] = defaultdict(int)
        self.splatted: Set[str] = set()
        for tree in src.values():
            self._scan(tree, (), None)
        for tree in callers:
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    self._record(node)

    def _scan(self, node: ast.AST, enclosing: tuple, cls, validating=None) -> None:
        """Count *node*'s children; *cls* is the enclosing class, if any, and
        *validating* the class whose ``if ...: raise`` guard is being read."""
        for child in ast.iter_child_nodes(node):
            if _is_all(child):
                continue
            if isinstance(child, (ast.Name, ast.Attribute)):
                name = child.id if isinstance(child, ast.Name) else child.attr
                self.references[name] += 1
                for definition in enclosing:
                    if definition.name == name:
                        self.own_mentions[definition] += 1
            if isinstance(child, ast.Attribute):
                if isinstance(child.ctx, ast.Load):
                    self.reads[child.attr].add(validating)
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                if child.value.isidentifier():
                    self.references[child.value] += 1
                    self.reads[child.value].add(None)
            elif isinstance(child, ast.Call):
                self._record(child)
            if isinstance(child, _DEFS):
                inner = child.name if isinstance(child, ast.ClassDef) else cls
                self._scan(child, enclosing + (child,), inner)
            elif (isinstance(child, ast.If) and cls is not None
                  and all(isinstance(s, ast.Raise) for s in child.body)):
                self._scan(ast.Expression(child.test), enclosing, cls, validating=cls)
                self._scan(ast.Module(child.body + child.orelse, []), enclosing, cls,
                           validating)
            else:
                self._scan(child, enclosing, cls, validating)

    def _record(self, call: ast.Call) -> None:
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name is None:
            return
        for keyword in call.keywords:
            if keyword.arg is None:
                self.splatted.add(name)
            else:
                self.keywords[name].add(keyword.arg)
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            self.splatted.add(name)
        self.positionals[name] = max(self.positionals[name], len(call.args))

    # -- the three checks -------------------------------------------------
    def unreferenced_definitions(self) -> List[str]:
        return [
            qualname
            for module, tree in self.src.items()
            for qualname, node, _ in _definitions(module, tree)
            if not (_is_dunder(node.name) or _is_registered(node)
                    or self.references[node.name] > self.own_mentions[node])
        ]

    def unpassed_parameters(self) -> List[str]:
        found = []
        for module, tree in self.src.items():
            for qualname, node, cls in _definitions(module, tree):
                if isinstance(node, ast.ClassDef) or _is_registered(node):
                    continue   # a registry passes a registered builder's keywords
                if node.name == "__init__":
                    callees = {cls, "__init__"}
                elif _is_dunder(node.name):
                    continue
                else:
                    callees = {node.name}
                if callees & self.splatted:
                    continue
                args = node.args
                positional = args.posonlyargs + args.args
                bound = bool(cls) and "staticmethod" not in {
                    _decorator_name(d) for d in node.decorator_list}
                defaulted = [
                    (index - bound, arg.arg)
                    for index, arg in enumerate(positional)
                    if index >= len(positional) - len(args.defaults)
                ] + [
                    (None, arg.arg)
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                ]
                most = max(self.positionals[c] for c in callees)
                for index, arg in defaulted:
                    if any(arg in self.keywords[c] for c in callees):
                        continue
                    if index is not None and most > index:
                        continue
                    found.append(f"{qualname}({arg})")
        return found

    def unread_fields(self) -> List[str]:
        found = []
        for module, tree in self.src.items():
            for qualname, node, _ in _definitions(module, tree):
                if not isinstance(node, ast.ClassDef) or "dataclass" not in {
                        _decorator_name(d) for d in node.decorator_list}:
                    continue
                for statement in node.body:
                    if (isinstance(statement, ast.AnnAssign)
                            and isinstance(statement.target, ast.Name)
                            and "ClassVar" not in ast.unparse(statement.annotation)
                            and not self.reads[statement.target.id] - {node.name}):
                        found.append(f"{qualname}.{statement.target.id}")
        return found


def build_tree(root: Path = ROOT) -> Tree:
    callers = [tree for directory in CALLER_DIRS if (root / directory).is_dir()
               for _, tree in _modules(root / directory)]
    return Tree(dict(_modules(root / "src")), callers)


@pytest.fixture(scope="module")
def tree() -> Tree:
    return build_tree()


def _check(found: List[str], allowed: Dict[str, str], what: str) -> None:
    unexpected = sorted(set(found) - set(allowed))
    stale = sorted(set(allowed) - set(found))
    assert not unexpected, (
        f"{what}: delete them, or allow-list them with their reader: {unexpected}")
    assert not stale, f"allow-list entries the audit no longer flags; remove them: {stale}"


def test_every_src_definition_is_referenced_in_src(tree):
    _check(tree.unreferenced_definitions(), ALLOWED_DEFS,
           "definitions nothing in src/ references")


def test_every_defaulted_parameter_is_passed_somewhere(tree):
    _check(tree.unpassed_parameters(), ALLOWED_PARAMS,
           "defaulted parameters no call site passes")


def test_every_dataclass_field_is_read_in_src(tree):
    _check(tree.unread_fields(), ALLOWED_FIELDS, "dataclass fields no src/ code reads")


def test_the_audit_flags_planted_dead_code():
    """One of each: an unused function, an unpassed parameter and a field
    only its own validation guard reads."""
    planted = ast.parse(textwrap.dedent("""
        from dataclasses import dataclass

        def used(x, flag=False, scale=1):
            return x * scale if flag else x

        def unused():
            return unused()

        @dataclass
        class Config:
            read: int = 0
            unread: int = 0

            def __post_init__(self):
                if self.unread < 0:
                    raise ValueError("unread must be non-negative")

        used(Config().read, True)
    """))
    tree = Tree({"planted": planted}, [])
    assert tree.unreferenced_definitions() == ["planted.unused"]
    assert tree.unpassed_parameters() == ["planted.used(scale)"]
    assert tree.unread_fields() == ["planted.Config.unread"]

