"""The five benchmark workloads: one repetition each, closed loop, one thread.

Every workload is a function ``(seed, sizes, tracer, scratch) -> Rep`` that
builds fresh objects from the seed, drives the program through its public
API, times the calls with the process CPU clock and checks the simulated
outputs.  Why each workload exists is recorded in ``BENCHMARK.json`` and
``bench/README.md``.
"""

from __future__ import annotations

import random
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from bench.trace import NullTracer

#: Every bounded timing reads the process CPU clock: the workloads are one
#: CPU-bound thread, so on an idle host it equals wall-clock, and unlike
#: ``perf_counter`` it does not count what the hypervisor steals (identical
#: runs on the builder's box read 17-36 s wall-clock for 8.5-12 s of CPU).
_clock = time.process_time

#: ``--seed`` drives what the sensors and the radio do while the system
#: runs: every node's readings (data-source and run seeds) and the link-loss
#: draws.  The deployment -- topology, the two nodes that fail, the query pool
#: and the churn trace's arrivals and departures -- is this one seed for every
#: ``--seed``: another topology moves simulated traffic by 40 % and run time
#: by 20 %, another churn trace moves admission cost by 20 % (quartile spread
#: over median, seeds 0-3), which would drown any bound the benchmark sets.
DEPLOYMENT_SEED = 0

#: The simulated statistics every repetition reports; repetitions of one
#: workload must agree on all of them, and ``expected.json`` pins them at seed 0.
STAT_KEYS = ("total_traffic", "initiation_traffic", "results_produced",
             "results_delivered", "messages_dropped")


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  The defaults are the benchmark; ``QUICK`` is for tests."""

    mote_nodes: int = 100
    mote_cycles: int = 100
    static_ratios: Optional[Tuple[str, ...]] = None     # None = all five
    static_sigmas: Optional[Tuple[float, ...]] = None   # None = all three
    dynamic_ratios: Tuple[str, ...] = ("1/10:1", "1/2:1/2", "1:1/10")
    dynamic_sigmas: Tuple[float, ...] = (0.20, 0.05)
    service_nodes: int = 120
    service_queries: int = 32
    service_warm: int = 5
    steady_steps: int = 150
    churn_cycles: int = 80
    churn_interval: int = 5
    churn_count: int = 4
    scale_nodes: int = 30_000
    scale_cycles: int = 50
    pings: int = 200


QUICK = replace(
    Sizes(), mote_cycles=10, static_ratios=("1/2:1/2",), static_sigmas=(0.20,),
    dynamic_ratios=("1/2:1/2",), dynamic_sigmas=(0.20,), service_queries=4,
    service_warm=1, steady_steps=10, churn_cycles=10, churn_count=2,
    scale_nodes=5_000, scale_cycles=10, pings=20,
)


@dataclass
class Rep:
    """What one repetition measured."""

    cpu_s: float = 0.0          # the whole repetition, process CPU clock
    wall_s: float = 0.0         # the same interval on perf_counter (diagnostic)
    stats: Dict[str, float] = field(default_factory=lambda: dict.fromkeys(STAT_KEYS, 0.0))
    attempted: int = 0
    failed: int = 0
    #: latency of each submitted unit: a run (batch) or a ``submit`` (service)
    unit_s: List[float] = field(default_factory=list)
    #: per-cycle latency samples: ``step(1)`` calls, or run time / cycles
    cycle_s: List[float] = field(default_factory=list)
    cycles: int = 0             # simulated sampling cycles
    stepping_s: float = 0.0     # seconds inside the calls that ran them
    # counts and latency samples that only the per-layer table uses
    reoptimizations: int = 0
    store_rows: int = 0
    deduped_shipments: int = 0
    shared_savings_units: float = 0.0
    cancel_s: List[float] = field(default_factory=list)
    stats_s: float = 0.0
    #: the daemon front end of a service repetition, for :func:`ping`
    daemon: Optional[object] = None
    ping_s: List[float] = field(default_factory=list)

    def add_cycles(self, elapsed: float, cycles: int = 1) -> None:
        self.cycle_s.append(elapsed / cycles)
        self.cycles += cycles
        self.stepping_s += elapsed

    def add_run(self, elapsed: float, cycles: int) -> None:
        self.unit_s.append(elapsed)
        self.add_cycles(elapsed, cycles)

    def add_report(self, report) -> None:
        for key in STAT_KEYS:
            self.stats[key] += getattr(report, key)
        self.attempted += 1
        self.reoptimizations += report.reoptimizations
        if report.results_delivered > report.results_produced:
            self.failed += 1


def setup() -> None:
    """Imports, registrations and one smoke sweep, so lazy set-up is done
    before anything is timed.  Its duration is ``setup_s``."""
    from repro.engine import SweepRunner, reset_workload_caches
    from repro.engine.registry import load_experiment_registrations
    from repro.engine.spec import resolve_scale
    from repro.experiments.scenarios import resolve_scenario

    load_experiment_registrations()
    SweepRunner(jobs=1).run(resolve_scenario("fig02-smoke"), resolve_scale("smoke"))
    reset_workload_caches()


# ---------------------------------------------------------------------------
# batch sweeps
# ---------------------------------------------------------------------------

def _mote_scale(sizes: Sizes):
    from repro.engine import ExperimentScale

    return ExperimentScale(name="bench", runs=1, cycles=sizes.mote_cycles,
                           num_nodes=sizes.mote_nodes, long_cycles=sizes.mote_cycles)


def _seeded(scenario, seed: int):
    return scenario.with_overrides(
        topology_seed=DEPLOYMENT_SEED, seed_base=seed,
        workload_seed_base=100 + seed, link_seed=seed)


def _timed_sweep(rep: Rep, scenario, scale, store=None):
    """Run one serial sweep, timing each run from the progress callback."""
    from repro.engine import SweepRunner

    last = [_clock()]

    def progress(done, total, spec):
        now = _clock()
        elapsed, last[0] = now - last[0], now
        rep.add_run(elapsed, spec.cycles)

    sweep = SweepRunner(jobs=1, store=store, progress=progress).run(scenario, scale)
    for group in sweep.groups:
        for aggregate in group.aggregates.values():
            for run in aggregate.runs:
                rep.add_report(run.report)
    return sweep


def mote_static(seed: int, sizes: Sizes, tracer: NullTracer, scratch: Path) -> Rep:
    """Figure 2 + Figure 3 sweeps on perfect links into a fresh store, then
    the same sweeps served from the store."""
    from repro.engine import ResultStore, SweepRunner
    from repro.experiments.scenarios import query_traffic_scenario

    rep = Rep()
    scale = _mote_scale(sizes)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp, \
            ResultStore(Path(tmp) / "store.sqlite") as store:
        for query in ("query1", "query2"):
            scenario = _seeded(query_traffic_scenario(
                query, f"bench-static/{query}", ratios=sizes.static_ratios,
                join_selectivities=sizes.static_sigmas), seed)
            sweep = _timed_sweep(rep, scenario, scale, store)
            for group in sweep.groups:
                # lossless and static: every strategy sees the same tuples,
                # so they must agree on how many results the join has
                produced = {agg.runs[0].report.results_produced
                            for agg in group.aggregates.values()}
                if len(produced) != 1:
                    rep.failed += len(group.aggregates)
            again = SweepRunner(jobs=1, store=store).run(scenario, scale)
            if again.executed or again.rows() != sweep.rows():
                rep.failed += sweep.total_runs
            rep.store_rows += sweep.executed
    return rep


def mote_dynamic(seed: int, sizes: Sizes, tracer: NullTracer, scratch: Path) -> Rep:
    """Query 1 on lossy links with two node failures after the first half,
    energy and hotspot sinks attached."""
    from repro.engine import build_topology
    from repro.experiments.scenarios import query_traffic_scenario

    rep = Rep()
    topology = build_topology(None, preset="moderate", seed=DEPLOYMENT_SEED,
                              num_nodes=sizes.mote_nodes)
    candidates = [n for n in topology.node_ids if n != topology.base_id]
    first, second = random.Random(DEPLOYMENT_SEED).sample(candidates, 2)
    scenario = _seeded(query_traffic_scenario(
        "query1", "bench-dynamic/query1", ratios=sizes.dynamic_ratios,
        join_selectivities=sizes.dynamic_sigmas), seed).with_overrides(
        link_loss=0.2,
        sinks=("energy", "hotspots"),
        phases=(
            {"name": "pre", "fraction": 0.5},
            {"name": "post", "failures": ({"node": first, "at": 0},
                                          {"node": second, "at": min(10, sizes.mote_cycles // 4)})},
        ),
    )
    _timed_sweep(rep, scenario, _mote_scale(sizes))
    return rep


# ---------------------------------------------------------------------------
# the scale rung
# ---------------------------------------------------------------------------

def scale_30k(seed: int, sizes: Sizes, tracer: NullTracer, scratch: Path) -> Rep:
    """One scale-ladder rung: generate, build routing state, then a
    through-the-base, a hash-keyed and an in-network run on that topology."""
    from repro.engine import execution, workload
    from repro.engine.spec import RunSpec, freeze
    from repro.routing.tree import RoutingTree
    from repro.workloads.selectivity import selectivities_for_ratio

    rep = Rep()
    nodes = sizes.scale_nodes
    topology = workload.build_topology(None, preset="scale", seed=DEPLOYMENT_SEED,
                                       num_nodes=nodes)
    with tracer.span("network.routing_build"):
        cache = topology.routing_cache.validate()
        RoutingTree(topology)
        if cache.array_mode:
            cache.landmark_tables()
    sel = selectivities_for_ratio("1/2:1/2", 0.2)
    for algorithm in ("base", "ght", "innet-cmg"):
        spec = RunSpec(
            scenario="bench-scale", setting=freeze({"num_nodes": nodes}),
            query="query0-keyed", query_kwargs=freeze({"seed": DEPLOYMENT_SEED + 1}),
            algorithm=algorithm, run_index=0, seed=seed, workload_seed=100 + seed,
            cycles=sizes.scale_cycles, topology_preset="scale",
            topology_seed=DEPLOYMENT_SEED,
            num_nodes=nodes, sigma_s=sel.sigma_s, sigma_t=sel.sigma_t,
            sigma_st=sel.sigma_st, assumed_sigma_s=sel.sigma_s,
            assumed_sigma_t=sel.sigma_t, assumed_sigma_st=sel.sigma_st,
        )
        started = _clock()
        report = execution.execute_run(spec).report
        rep.add_run(_clock() - started, spec.cycles)
        rep.add_report(report)
    return rep


# ---------------------------------------------------------------------------
# the service daemon's engine
# ---------------------------------------------------------------------------

class _Service:
    """A ServiceEngine plus the timing and checking shared by both uses."""

    def __init__(self, seed: int, sizes: Sizes, rep: Rep) -> None:
        from repro.service.daemon import ServiceDaemon
        from repro.service.engine import ServiceConfig

        self.sizes, self.rep = sizes, rep
        # the loop drives the engine directly; only the pings use the socket
        self.daemon = ServiceDaemon(ServiceConfig(
            num_nodes=sizes.service_nodes, topology_seed=DEPLOYMENT_SEED,
            seed=seed, default_algorithm="innet-cmg"))
        self.engine = self.daemon.engine
        self.ids: Dict[int, int] = {}

    def _op(self, call: Callable, *args, **kwargs):
        self.rep.attempted += 1
        started = _clock()
        result = call(*args, **kwargs)
        return result, _clock() - started

    def submit(self, slot: int) -> None:
        from repro.service.churn import churn_query

        name, sql = churn_query(slot, DEPLOYMENT_SEED, self.sizes.service_nodes)
        facts, elapsed = self._op(self.engine.submit, sql=sql, name=name)
        self.ids[slot] = facts["query_id"]
        self.rep.stats["initiation_traffic"] += facts["initiation_traffic"]
        self.rep.unit_s.append(elapsed)

    def cancel(self, slot: int) -> None:
        _, elapsed = self._op(self.engine.cancel, self.ids.pop(slot))
        self.rep.cancel_s.append(elapsed)

    def step(self, timed: bool = True) -> None:
        _, elapsed = self._op(self.engine.step, 1)
        if timed:
            self.rep.add_cycles(elapsed)

    def finish(self) -> None:
        engine, rep = self.engine, self.rep
        started = _clock()
        stats = engine.stats()
        rep.stats_s = _clock() - started
        rep.stats["total_traffic"] = stats["total_traffic"]
        rep.stats["messages_dropped"] = float(engine.shared.simulator.stats.messages_dropped)
        for session in engine.status()["queries"]:
            rep.stats["results_produced"] += session["results_produced"]
            rep.stats["results_delivered"] += session["results_delivered"]
            if session["results_delivered"] > session["results_produced"]:
                rep.failed += 1
        rep.deduped_shipments = stats["deduped_shipments"]
        rep.shared_savings_units = stats["shared_savings_units"]
        rep.reoptimizations = stats["reoptimizations"]
        rep.daemon = self.daemon


def ping(daemon, count: int) -> List[float]:
    """Wall-clock loopback round trips through the daemon's socket front
    end, one connection at a time.  Run after a repetition's clock stopped."""
    from repro.service.daemon import ServiceServer, request

    samples: List[float] = []
    with ServiceServer(("127.0.0.1", 0), daemon) as server:
        host, port = server.server_address
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05})
        thread.start()
        try:
            for _ in range(count):
                started = time.perf_counter()
                reply = request(host, port, {"op": "ping"}, timeout=10.0)
                samples.append(time.perf_counter() - started)
                if not reply.get("ok"):
                    raise RuntimeError(f"daemon ping failed: {reply}")
        finally:
            server.shutdown()
            thread.join()
    return samples


def service_steady(seed: int, sizes: Sizes, tracer: NullTracer, scratch: Path) -> Rep:
    """Admit a fixed population, warm up, then step the daemon's engine."""
    rep = Rep()
    service = _Service(seed, sizes, rep)
    for slot in range(sizes.service_queries):
        service.submit(slot)
    for _ in range(sizes.service_warm):
        service.step(timed=False)
    for _ in range(sizes.steady_steps):
        service.step()
    service.finish()
    return rep


def service_churn(seed: int, sizes: Sizes, tracer: NullTracer, scratch: Path) -> Rep:
    """Replay an arrival/departure trace: cancels, submits, one step."""
    from repro.service.churn import build_churn_trace, events_by_cycle

    rep = Rep()
    service = _Service(seed, sizes, rep)
    trace = events_by_cycle(build_churn_trace(
        DEPLOYMENT_SEED, cycles=sizes.churn_cycles, target=sizes.service_queries,
        churn_interval=sizes.churn_interval, churn_count=sizes.churn_count))
    for cycle in range(sizes.churn_cycles):
        for event in trace.get(cycle, ()):
            if event.action == "cancel":
                service.cancel(event.slot)
            else:
                service.submit(event.slot)
        service.step()
    service.finish()
    return rep


WORKLOADS: Dict[str, Callable[[int, Sizes, NullTracer, Path], Rep]] = {
    "mote-static": mote_static,
    "mote-dynamic": mote_dynamic,
    "service-steady": service_steady,
    "service-churn": service_churn,
    "scale-30k": scale_30k,
}
