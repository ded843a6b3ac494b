"""Outside-in tracing for the benchmark: spans and counts at layer boundaries.

The traced run replaces public attributes of the ``repro`` layers with
wrappers that record a span (name, start, end, parent, repetition) or, for
functions called more than ~1e5 times a repetition, only a count.  Nothing
under ``src/`` is edited; every replaced attribute is put back by
:meth:`Tracer.restore`.  End-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

_perf = time.perf_counter

# span record layout: [name, start, end, parent index (-1 = root), repetition]
NAME, START, END, PARENT, REP = range(5)


class NullTracer:
    """What workloads get on an untraced run: every hook is a no-op."""

    active = False

    def span(self, name: str):
        return nullcontext()


class Tracer(NullTracer):
    """In-memory span list plus counters; written out when the workload ends."""

    active = True

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.rep = 0
        self._stack: List[int] = []
        self._replaced: List[Tuple[Any, str, Any, bool]] = []

    # -- recording ------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = self._open(name)
        try:
            yield
        finally:
            record[END] = _perf()
            self._stack.pop()

    def _open(self, name: str) -> list:
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rep]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = _perf()
        return record

    # -- wrapping -------------------------------------------------------------
    def _timed(self, fn: Callable, name: str) -> Callable:
        spans, stack, open_span = self.spans, self._stack, self._open

        def traced(*args, **kwargs):
            # a subclass calling super() must not open the same span twice
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            record = open_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = _perf()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def wrap(self, owner: Any, attr: str, span: str, count_only: bool = False) -> None:
        """Replace ``owner.attr`` (a plain function on a class or module)."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        wrapper = (self._counted if count_only else self._timed)(original, span)
        self._replaced.append((owner, attr, original, had_own))
        setattr(owner, attr, wrapper)

    def wrap_overrides(self, base: type, attr: str, span: str) -> None:
        """Wrap ``attr`` on *base* and on every subclass that overrides it."""
        todo, seen = [base], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            member = vars(cls).get(attr)
            if member is not None and not getattr(member, "__isabstractmethod__", False):
                self.wrap(cls, attr, span)

    def wrap_function(self, fn: Callable, span: str) -> None:
        """Wrap a module-level function in every ``repro`` module that holds
        a reference to it (``from x import fn`` copies the binding)."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.wrap(module, attr, span)

    def restore(self) -> None:
        while self._replaced:
            owner, attr, original, had_own = self._replaced.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis -------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds (span minus
        the part its direct children cover)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for record in spans:
            if record[PARENT] >= 0:
                child_time[record[PARENT]] += record[END] - record[START]
        out: Dict[str, Dict[str, float]] = {}
        for index, record in enumerate(spans):
            entry = out.setdefault(record[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            duration = record[END] - record[START]
            entry["calls"] += 1
            entry["busy_s"] += duration
            entry["self_s"] += duration - child_time[index]
        return out

    def calls_within(self, name: str, ancestors: Tuple[str, ...]) -> int:
        """How many *name* spans have a span named in *ancestors* above them."""
        inside: List[bool] = []
        found = 0
        for record in self.spans:   # parents precede their children
            parent = record[PARENT]
            below = parent >= 0 and (inside[parent] or self.spans[parent][NAME] in ancestors)
            inside.append(below)
            found += below and record[NAME] == name
        return found

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start", "end", "parent", "rep"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public boundary of every layer.  Call before any engine
    object is built: the metrics pipeline binds its dispatchers, and a
    topology its epoch listener, at construction."""
    from repro.core.group_opt import GroupOptimizer
    from repro.core.optimizer import PairwiseOptimizer
    from repro.engine import execution, workload
    from repro.engine.runner import SweepRunner
    from repro.engine.spec import ScenarioSpec
    from repro.engine.store import ResultStore
    from repro.joins.base import JoinStrategy
    from repro.joins.executor import JoinExecutor
    from repro.joins.stepping import SharedSubstrateEngine
    from repro.metrics.energy import EnergySink
    from repro.metrics.hotspot import HotspotSink
    from repro.metrics.pipeline import MetricsPipeline
    from repro.network.batch import CycleBatcher
    from repro.network.links import LinkModel
    from repro.network.simulator import NetworkSimulator
    from repro.network.topology import Topology
    from repro.query.analysis import analyze_query
    from repro.query.parser import parse_query
    from repro.query.window import JoinState
    from repro.routing.multitree import MultiTreeSubstrate
    from repro.routing.tree import RoutingTree
    from repro.service.engine import ServiceEngine
    from repro.summaries.bloom import BloomFilterSummary
    from repro.workloads.datasource import SyntheticDataSource

    wrap = tracer.wrap
    # network
    tracer.wrap_function(workload.build_topology, "network.topology_generate")
    wrap(Topology, "copy", "network.topology_copy")
    wrap(Topology, "invalidate_routing_caches", "network.routing_epoch_bump", count_only=True)
    wrap(NetworkSimulator, "transfer", "network.transfer")
    wrap(CycleBatcher, "flush", "network.batch_flush")
    wrap(LinkModel, "attempt_hops", "network.link_draw", count_only=True)
    wrap(LinkModel, "attempt_hops_batch", "network.link_draw", count_only=True)
    # routing and summaries
    wrap(RoutingTree, "__init__", "routing.tree_build")
    wrap(MultiTreeSubstrate, "__init__", "routing.substrate_build")
    wrap(MultiTreeSubstrate, "index_attributes", "routing.semantic_index")
    wrap(MultiTreeSubstrate, "find_matches", "routing.find_matches")
    wrap(MultiTreeSubstrate, "best_route", "routing.best_route", count_only=True)
    wrap(BloomFilterSummary, "__init__", "summaries.bloom_build", count_only=True)
    # query and workloads
    tracer.wrap_function(parse_query, "query.parse")
    tracer.wrap_function(analyze_query, "query.analyze")
    wrap(JoinState, "probe", "query.probe", count_only=True)
    wrap(SyntheticDataSource, "sample_many", "workloads.sample")
    # core
    wrap(PairwiseOptimizer, "optimize_pairs", "core.optimize")
    wrap(GroupOptimizer, "decide_group", "core.group_decide")
    wrap(GroupOptimizer, "apply_decision", "core.group_decide")
    # joins
    wrap(JoinExecutor, "initiate", "joins.initiate")
    wrap(JoinExecutor, "step_cycle", "joins.cycle")
    wrap(JoinExecutor, "report", "joins.report")
    tracer.wrap_overrides(JoinStrategy, "execute_cycle", "joins.execute_cycle")
    tracer.wrap_overrides(JoinStrategy, "execute_cycle_batch", "joins.execute_cycle_batch")
    tracer.wrap_overrides(JoinStrategy, "handle_failures", "joins.handle_failures")
    wrap(SharedSubstrateEngine, "attach", "joins.attach")
    wrap(SharedSubstrateEngine, "detach", "joins.detach")
    wrap(SharedSubstrateEngine, "step_cycle", "joins.shared_step")
    # engine
    wrap(ScenarioSpec, "expand", "engine.expand")
    wrap(SweepRunner, "run", "engine.sweep")
    tracer.wrap_function(execution.execute_run, "engine.execute_run")
    for builder in ("build_query", "memoized_workload", "memoized_workload_source"):
        tracer.wrap_function(getattr(workload, builder), "engine.workload_build")
    wrap(ResultStore, "__init__", "engine.store_open")
    wrap(ResultStore, "close", "engine.store_open")
    wrap(ResultStore, "put_many", "engine.store_write")
    wrap(ResultStore, "completed", "engine.store_resume")
    wrap(ResultStore, "get", "engine.store_resume")
    # service
    for op in ("submit", "cancel", "step", "stats"):
        wrap(ServiceEngine, op, f"service.{op}")
    # metrics: events delivered to the observational sinks, and their summaries
    for sink in (EnergySink, HotspotSink):
        for event in ("charge_transmission", "charge_path", "charge_paths_batch",
                      "charge_broadcast"):
            wrap(sink, event, "metrics.emit", count_only=True)
    wrap(MetricsPipeline, "summaries", "metrics.summaries")
