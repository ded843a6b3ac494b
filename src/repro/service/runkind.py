"""The ``service`` run kind: frozen, replayable query-churn runs.

Expanding a ``query-churn`` scenario yields ordinary frozen RunSpecs whose
``kind`` is ``"service"``; this executor replays the spec's deterministic
churn trace either on the shared substrate (``algorithm="shared"``) or as
one private :class:`~repro.joins.executor.JoinExecutor` per query
(``algorithm="independent"``), so the two rows of every grid point quantify
the shared-substrate traffic savings directly.  Both paths are pure
functions of the spec -- no wall clock, no ambient randomness -- so the
sweep runner's store/resume machinery applies unchanged.
"""

from __future__ import annotations

from typing import Dict, List

from repro.engine.registry import make_strategy, register_run_kind
from repro.engine.results import measurement_report
from repro.engine.spec import RunSpec
from repro.joins.base import ExecutionReport
from repro.joins.executor import JoinExecutor
from repro.query.parser import parse_query
from repro.service.churn import build_churn_trace, churn_query, events_by_cycle
from repro.service.engine import ServiceConfig, ServiceEngine
from repro.workloads.datasource import SyntheticDataSource


def _churn_params(spec: RunSpec) -> Dict[str, object]:
    params = spec.params_dict()
    return {
        "target": int(params.get("target_queries", 8)),
        "interval": int(params.get("churn_interval", 5)),
        "count": int(params.get("churn_count", 2)),
        "churn_seed": int(params.get("churn_seed", 7)) + spec.run_index,
        "strategy": str(params.get("strategy", "innet-cmg")),
        "window_size": int(params.get("window_size", 2)),
        "share": bool(params.get("share", True)),
    }


def _service_data_source(spec: RunSpec) -> SyntheticDataSource:
    return SyntheticDataSource(
        sigma_st=spec.sigma_st,
        send_probability=spec.sigma_s,
        seed=spec.workload_seed,
    )


def _report(
    spec: RunSpec,
    total: float,
    base: float,
    max_load: float,
    extra: Dict[str, float],
) -> ExecutionReport:
    return measurement_report(
        query_name="churn-pool",
        algorithm=spec.display_label,
        cycles=spec.cycles,
        total_traffic=total,
        base_traffic=base,
        max_node_load=max_load,
        **extra,
    )


def _run_shared(spec: RunSpec, knobs: Dict[str, object]) -> ExecutionReport:
    from repro.engine.workload import build_topology

    topology = build_topology(
        None,
        preset=spec.topology_preset,
        seed=spec.topology_seed,
        num_nodes=spec.num_nodes,
        fresh=True,
    )
    config = ServiceConfig(
        seed=spec.workload_seed,
        send_probability=spec.sigma_s,
        sigma_st=spec.sigma_st,
        assumed=spec.assumed_selectivities,
        accounting=spec.accounting,
        share_shipments=bool(knobs["share"]),
        default_algorithm=str(knobs["strategy"]),
    )
    engine = ServiceEngine(
        config, topology=topology, data_source=_service_data_source(spec)
    )
    trace = events_by_cycle(
        build_churn_trace(
            seed=int(knobs["churn_seed"]),
            cycles=spec.cycles,
            target=int(knobs["target"]),
            churn_interval=int(knobs["interval"]),
            churn_count=int(knobs["count"]),
        )
    )
    slot_to_query: Dict[int, int] = {}
    num_nodes = len(topology.nodes)
    for cycle in range(spec.cycles):
        for event in trace.get(cycle, ()):
            if event.action == "cancel":
                engine.cancel(slot_to_query.pop(event.slot))
            else:
                name, sql = churn_query(
                    event.slot, int(knobs["churn_seed"]), num_nodes,
                    window_size=int(knobs["window_size"]),
                )
                admitted = engine.submit(sql=sql, name=name)
                slot_to_query[event.slot] = admitted["query_id"]
        engine.step(1)
    stats = engine.stats()
    extra = {
        key: float(value)
        for key, value in stats.items()
        if key not in ("total_traffic", "base_traffic", "max_node_load")
    }
    extra.update(
        {k: float(v) for k, v in engine.reopt_summary().items()}
    )
    return _report(
        spec,
        float(stats["total_traffic"]),
        float(stats["base_traffic"]),
        float(stats["max_node_load"]),
        extra,
    )


def _run_independent(spec: RunSpec, knobs: Dict[str, object]) -> ExecutionReport:
    from repro.engine.workload import build_topology

    topology = build_topology(
        None,
        preset=spec.topology_preset,
        seed=spec.topology_seed,
        num_nodes=spec.num_nodes,
        fresh=True,
    )
    data_source = _service_data_source(spec)
    assumed = spec.assumed_selectivities
    trace = events_by_cycle(
        build_churn_trace(
            seed=int(knobs["churn_seed"]),
            cycles=spec.cycles,
            target=int(knobs["target"]),
            churn_interval=int(knobs["interval"]),
            churn_count=int(knobs["count"]),
        )
    )
    executors: Dict[int, JoinExecutor] = {}
    finished: List[JoinExecutor] = []
    admitted = cancelled = 0
    peak = 0
    num_nodes = len(topology.nodes)
    for cycle in range(spec.cycles):
        for event in trace.get(cycle, ()):
            if event.action == "cancel":
                finished.append(executors.pop(event.slot))
                cancelled += 1
            else:
                name, sql = churn_query(
                    event.slot, int(knobs["churn_seed"]), num_nodes,
                    window_size=int(knobs["window_size"]),
                )
                query = parse_query(sql, name=name)
                executor = JoinExecutor(
                    query,
                    topology,
                    data_source,
                    make_strategy(str(knobs["strategy"])),
                    assumed,
                    seed=spec.workload_seed,
                )
                executor.initiate()
                executors[event.slot] = executor
                admitted += 1
        peak = max(peak, len(executors))
        for slot in sorted(executors):
            executors[slot].step_cycle(cycle)
    everyone = finished + [executors[slot] for slot in sorted(executors)]
    total = sum(e.simulator.stats.total() for e in everyone)
    base = sum(
        e.simulator.stats.at_base(topology.base_id) for e in everyone
    )
    # The baseline runs every query on its own radio accounting; summing the
    # per-node loads across executors models the same physical network
    # carrying all of them without sharing.
    merged: Dict[int, float] = {}
    for executor in everyone:
        stats = executor.simulator.stats
        for node, units in stats.transmitted.items():
            merged[node] = merged.get(node, 0.0) + units
        for node, units in stats.received.items():
            merged[node] = merged.get(node, 0.0) + units
    extra = {
        "admitted": float(admitted),
        "cancelled": float(cancelled),
        "peak_concurrency": float(peak),
        "shared_savings_units": 0.0,
        "independent_traffic_estimate": float(total),
        "reoptimizations": float(
            sum(e.strategy.reoptimizations for e in everyone)
        ),
        # No engine-level reoptimization plane on the independent path;
        # zeros keep the metric columns resolvable across both rows.
        "reopt_latency_count": 0.0,
        "reopt_latency_p50": 0.0,
        "reopt_latency_p95": 0.0,
    }
    return _report(
        spec, float(total), float(base), max(merged.values(), default=0.0),
        extra,
    )


@register_run_kind("service")
def _run_service(spec: RunSpec) -> ExecutionReport:
    """Replay one deterministic churn trace in shared or independent mode."""
    knobs = _churn_params(spec)
    if spec.algorithm == "independent":
        return _run_independent(spec, knobs)
    return _run_shared(spec, knobs)
