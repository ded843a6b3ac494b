"""Materializing and executing a single :class:`~repro.engine.spec.RunSpec`.

``run_single`` is the object-level runner (explicit query/topology/data
source), unchanged from the historical harness; ``execute_run`` is the
engine's schedulable unit: it rebuilds every object a frozen RunSpec
describes -- through the worker-local memo caches of
:mod:`repro.engine.workload` -- and runs it.  Because every input is a
deterministic function of the spec, serial and parallel executors produce
bit-identical reports for the same RunSpec.

Two extensions beyond the plain join run:

* **Run kinds.**  A RunSpec whose ``kind`` is not ``"join"`` dispatches to an
  executor registered in :data:`repro.engine.registry.RUN_KINDS` -- the
  measurement-style figures (path quality, initiation traffic, mobility) are
  expressed this way so the whole paper runs through one engine.
* **Multi-phase runs.**  A RunSpec with resolved :class:`PhaseSpec` phases
  runs them back to back on one executor: per-phase data-source regimes
  (temporal drift), failure injection (including the symbolic ``"join"``
  target resolved by scouting the run's own plan) and leaf mobility at phase
  boundaries, with per-phase traffic recorded into the report's ``extra``
  metrics (``phase_<name>_traffic`` / ``phase_<name>_cycles``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.cost_model import Selectivities
from repro.engine.registry import RUN_KINDS, make_strategy
from repro.engine.results import RunResult
from repro.engine.spec import PhaseSpec, RunSpec, thaw
from repro.engine.workload import (
    build_query,
    build_topology,
    memoized_assumed_provider,
    memoized_workload,
    memoized_workload_source,
)
from repro.joins import JoinExecutor
from repro.network.failures import FailureInjector
from repro.network.links import LinkModel, lossy_links
from repro.network.topology import Topology
from repro.network.traffic import TrafficAccounting
from repro.query.query import JoinQuery


def run_single(
    query: JoinQuery,
    topology: Topology,
    data_source,
    algorithm: str,
    assumed_selectivities,
    cycles: int,
    seed: int = 0,
    accounting: TrafficAccounting = TrafficAccounting.BYTES,
    failure_injector: Optional[FailureInjector] = None,
    strategy_kwargs: Optional[Dict] = None,
    link_model: Optional[LinkModel] = None,
    sinks: Optional[List] = None,
    node_series_cap: Optional[int] = None,
) -> RunResult:
    """One run of one algorithm.

    The topology (and its warmed PathCache) is shared across seeded runs:
    a copy is only taken when the run will mutate it, i.e. when a failure
    injector with events is present.
    Instrumentation *sinks* (see :mod:`repro.metrics`) observe the run's
    accounting events; their summaries land in the report's ``extra`` and
    their per-node series in ``report.node_series``.
    """
    copy_topology = failure_injector is not None and not failure_injector.is_empty()
    strategy = make_strategy(algorithm, **(strategy_kwargs or {}))
    executor = JoinExecutor(
        query=query,
        topology=topology.copy() if copy_topology else topology,
        data_source=data_source,
        strategy=strategy,
        assumed_selectivities=assumed_selectivities,
        link_model=link_model,
        accounting=accounting,
        failure_injector=failure_injector,
        seed=seed,
        sinks=sinks,
        node_series_cap=node_series_cap,
    )
    report = executor.run(cycles)
    return RunResult(algorithm=algorithm, seed=seed, report=report)


def _strategy_kwargs_from_spec(spec: RunSpec) -> Optional[Dict]:
    """Thaw strategy kwargs, rebuilding declarative policy objects."""
    kwargs = thaw(spec.strategy_kwargs)
    if not kwargs:
        return None
    policy = kwargs.get("adaptive_policy")
    if isinstance(policy, dict):
        from repro.core.adaptive import AdaptivePolicy

        kwargs["adaptive_policy"] = AdaptivePolicy(**{
            key: value for key, value in policy.items()
        })
    return kwargs


# ---------------------------------------------------------------------------
# phase resolution helpers
# ---------------------------------------------------------------------------


def _phase_starts(phases: Tuple[PhaseSpec, ...]) -> List[int]:
    starts, cursor = [], 0
    for phase in phases:
        starts.append(cursor)
        cursor += phase.cycles or 0
    return starts


def _phase_schedule(spec: RunSpec) -> List[Tuple[int, Selectivities]]:
    """The data-source regime schedule of a phased run.

    Starts with the spec's own selectivities at cycle 0; every phase with a
    ``data`` override begins a new regime at its first cycle.
    """
    from repro.engine.spec import _selectivity_config

    schedule: List[Tuple[int, Selectivities]] = [(0, spec.data_selectivities)]
    for start, phase in zip(_phase_starts(spec.phases), spec.phases):
        override = phase.data_dict()
        if override is None:
            continue
        resolved = _selectivity_config(override)
        schedule.append((start, Selectivities(
            resolved["sigma_s"], resolved["sigma_t"], resolved["sigma_st"],
        )))
    if len(schedule) > 1 and schedule[1][0] == 0:
        # a phase-0 data override replaces the base regime outright
        schedule = schedule[1:]
    return schedule if len(schedule) > 1 else []


def _resolve_join_node(spec: RunSpec, query: JoinQuery, topology: Topology,
                       data_source, assumed_selectivities) -> Optional[int]:
    """Where the run's own strategy would place the first pair's join node.

    A scout instance of the strategy runs its initiation phase on a private
    topology copy (its traffic is discarded), exactly like the Figure 14
    harness discovered the node to fail.
    """
    scout = make_strategy(spec.algorithm, **(_strategy_kwargs_from_spec(spec) or {}))
    JoinExecutor(
        query=query,
        topology=topology.copy(),
        data_source=data_source,
        strategy=scout,
        assumed_selectivities=assumed_selectivities,
        accounting=TrafficAccounting(spec.accounting),
        seed=spec.seed,
    ).initiate()
    plan = scout.plan
    if plan is None:
        raise ValueError(
            f"algorithm {spec.algorithm!r} exposes no placement plan; the "
            "symbolic 'join' failure target needs an Innet-family strategy"
        )
    pairs = plan.pairs()
    if not pairs:
        return None
    return plan.decision_for(pairs[0]).join_node


def _build_injector(spec: RunSpec, query: JoinQuery, topology: Topology,
                    data_source, assumed_selectivities) -> Optional[FailureInjector]:
    """A FailureInjector covering spec-level and phase-level events."""
    events: List[Tuple[object, int]] = [(node, cycle) for node, cycle in spec.failures]
    for start, phase in zip(_phase_starts(spec.phases), spec.phases):
        for event in phase.failure_events():
            events.append((event["node"], start + int(event.get("at", 0))))
    if not events:
        return None
    injector = FailureInjector()
    join_node: Optional[int] = None
    join_resolved = False
    for node, cycle in events:
        if node == "join":
            if not join_resolved:
                join_node = _resolve_join_node(
                    spec, query, topology, data_source, assumed_selectivities
                )
                join_resolved = True
            # joining at the base station leaves nothing to fail (the base
            # cannot die), matching the bespoke Figure 14 behavior
            if join_node is None or join_node == topology.base_id:
                continue
            injector.schedule(join_node, cycle)
        else:
            injector.schedule(int(node), cycle)
    return injector if not injector.is_empty() else None


def _apply_phase_moves(phase: PhaseSpec, topology: Topology) -> int:
    """Apply a phase's leaf moves to the (run-private) topology.

    Returns how many moves succeeded; a move with no viable destination is
    skipped (the paper's mobility experiment likewise retries elsewhere).
    """
    from repro.network.mobility import (
        candidate_positions_near,
        is_leaf,
        move_leaf_node,
    )

    moved = 0
    for event in phase.move_events():
        node = event.get("node", "leaf")
        if node == "leaf":
            node = next(
                (n for n in reversed(topology.node_ids)
                 if n != topology.base_id and is_leaf(topology, n)),
                None,
            )
            if node is None:
                continue
        node = int(node)
        radius = float(event.get("radius", topology.radio_range))
        for position in candidate_positions_near(topology, node, radius=radius):
            try:
                move_leaf_node(topology, node, position)
                moved += 1
                break
            except ValueError:
                continue
    return moved


# ---------------------------------------------------------------------------
# the join run kind
# ---------------------------------------------------------------------------


def _execute_join_run(spec: RunSpec) -> RunResult:
    topology_key = (spec.topology_preset, spec.topology_seed, spec.num_nodes)
    # num_nodes is always resolved at expansion time, so no scale is needed.
    topology = build_topology(
        None, preset=spec.topology_preset, seed=spec.topology_seed,
        num_nodes=spec.num_nodes,
    )
    query_key = (spec.query, spec.query_kwargs)
    query = build_query(spec.query, spec.query_kwargs,
                        topology=topology, topology_key=topology_key)
    schedule = _phase_schedule(spec) if spec.phases else []
    if spec.workload_source is not None:
        if schedule:
            raise ValueError(
                f"scenario {spec.scenario!r}: phase data overrides only apply "
                "to the synthetic sigma-controlled workload; the custom "
                f"source {spec.workload_source!r} cannot drift mid-run"
            )
        data_source = memoized_workload_source(
            spec.workload_source, topology_key, topology, query_key, query,
            seed=spec.workload_seed, frozen_kwargs=spec.workload_kwargs,
        )
    else:
        data_source = memoized_workload(
            topology_key, topology, query_key, query,
            spec.data_selectivities, seed=spec.workload_seed,
            schedule=schedule,
        )
    if spec.assumed_source is not None:
        assumed = memoized_assumed_provider(
            spec.assumed_source, topology_key, topology, query_key, query,
            data_source, spec, frozen_kwargs=spec.assumed_kwargs,
        )
    else:
        assumed = spec.assumed_selectivities
    injector = _build_injector(spec, query, topology, data_source, assumed)
    link_model = None
    if spec.link_loss is not None:
        link_model = lossy_links(spec.link_loss, seed=spec.link_seed)
    has_moves = any(phase.moves for phase in spec.phases)
    sinks = _build_spec_sinks(spec)
    if not spec.phases:
        return run_single(
            query,
            topology,
            data_source,
            spec.algorithm,
            assumed,
            cycles=spec.cycles,
            seed=spec.seed,
            accounting=TrafficAccounting(spec.accounting),
            failure_injector=injector,
            strategy_kwargs=_strategy_kwargs_from_spec(spec),
            link_model=link_model,
            sinks=sinks,
            node_series_cap=spec.node_series_cap,
        )
    return _run_phased(spec, query, topology, data_source, assumed,
                       injector, link_model, copy_topology=(
                           injector is not None or has_moves),
                       sinks=sinks)


def _build_spec_sinks(spec: RunSpec):
    """Instantiate the instrumentation sinks a RunSpec opted into."""
    if not spec.sinks:
        return None
    from repro.metrics import build_sinks

    return build_sinks(spec.sink_entries())


def _run_phased(spec: RunSpec, query: JoinQuery, topology: Topology,
                data_source, assumed, injector, link_model,
                copy_topology: bool, sinks=None) -> RunResult:
    """Run resolved phases back to back on one executor.

    Chunking the cycle loop at phase boundaries changes no simulated state
    (there is no inter-cycle RNG), so a phased run with no injections is
    bit-identical to the equivalent single-phase run; the boundaries exist
    to snapshot per-phase traffic and apply phase-start injections.
    """
    strategy = make_strategy(
        spec.algorithm, **(_strategy_kwargs_from_spec(spec) or {})
    )
    executor = JoinExecutor(
        query=query,
        topology=topology.copy() if copy_topology else topology,
        data_source=data_source,
        strategy=strategy,
        assumed_selectivities=assumed,
        link_model=link_model,
        accounting=TrafficAccounting(spec.accounting),
        failure_injector=injector,
        seed=spec.seed,
        sinks=sinks,
        node_series_cap=spec.node_series_cap,
    )
    executor.initiate()
    extra: Dict[str, float] = {}
    cursor = 0
    for phase in spec.phases:
        moved = _apply_phase_moves(phase, executor.topology)
        before_total = executor.simulator.stats.total()
        before_base = executor.simulator.stats.at_base(executor.topology.base_id)
        executor.run_cycles(cursor, phase.cycles)
        stats = executor.simulator.stats
        extra[f"phase_{phase.name}_traffic"] = stats.total() - before_total
        extra[f"phase_{phase.name}_base_traffic"] = (
            stats.at_base(executor.topology.base_id) - before_base
        )
        extra[f"phase_{phase.name}_cycles"] = float(phase.cycles)
        if phase.moves:
            extra[f"phase_{phase.name}_moves"] = float(moved)
        if sinks:
            # cumulative sink summaries at the phase boundary, so lifetime /
            # hotspot trajectories are attributable to execution phases
            for key, value in executor.simulator.pipeline.summaries().items():
                extra[f"phase_{phase.name}_{key}"] = value
        cursor += phase.cycles
    report = executor.report(cursor)
    report.extra.update(extra)
    return RunResult(algorithm=spec.algorithm, seed=spec.seed, report=report)


def execute_run(spec: RunSpec) -> RunResult:
    """Materialize and run one RunSpec (the unit a pool worker executes)."""
    if spec.kind != "join":
        kind_executor = RUN_KINDS.get(spec.kind)
        report = kind_executor(spec)
        return RunResult(algorithm=spec.algorithm, seed=spec.seed, report=report)
    return _execute_join_run(spec)


def execute_run_entry(spec: RunSpec):
    """Top-level pool-worker entry point (must be picklable).

    Returns the ``(spec, report)`` pair the streaming executor persists and
    aggregates as results arrive.
    """
    return spec, execute_run(spec).report


def initialize_worker() -> None:
    """Pool-worker initializer: preload the experiment registrations.

    Fork workers inherit them anyway; spawn workers would otherwise resolve
    them lazily on the first registry miss, so loading them eagerly keeps the
    first dispatched run from paying the import inside the timed region.
    """
    from repro.engine.registry import load_experiment_registrations

    load_experiment_registrations()
