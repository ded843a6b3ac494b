"""Figures 2-9: join-algorithm comparison, cost-model validation and MPO.

Each figure of Section 4 / 5 is a declarative scenario factory plus a row
shaper: a function that turns the finished sweep into row dictionaries (one
per bar or series point in the original figure), ready to be printed with
:func:`repro.experiments.report.format_table`.  The shapers are registered
by scenario name in :data:`repro.experiments.scenarios.SCENARIO_TABLE_SHAPERS`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.centralized import (
    centralized_initiation,
    distributed_initiation_latency,
    optimal_pair_placements,
)
from repro.core.cost_model import Selectivities
from repro.core.placement import CandidateRoutes, PairTable
from repro.engine import (
    FIGURE2_ALGORITHMS,
    RunSpec,
    ScenarioSpec,
    build_topology,
    measurement_report,
    register_query_builder,
    register_run_kind,
)
from repro.network.message import MessageKind, MessageSizes
from repro.network.simulator import NetworkSimulator
from repro.routing.multitree import MultiTreeSubstrate
from repro.workloads.queries import build_query0, build_query0_keyed
from repro.workloads.selectivity import JOIN_SELECTIVITIES, RATIO_LADDER


@register_query_builder("query0-random")
def _build_query0_random(topology, seed: int = 1, window_size: int = 3):
    """Query 0 with random endpoints drawn from the run's deployment size.

    Registered topology-aware so scenarios stay pure data while the endpoint
    draw follows the scale's node count (the bespoke figures passed
    ``num_nodes=scale.num_nodes``).
    """
    return build_query0(
        num_nodes=len(topology.node_ids), seed=seed, window_size=window_size
    )


@register_query_builder("query0-keyed")
def _build_query0_keyed(topology, seed: int = 1, window_size: int = 3):
    """Query 0 with random endpoints plus a routable static join key.

    The ``query0-random`` endpoint draw (same seed, same endpoints) with a
    ``S.id = T.id + d`` clause the endpoints satisfy, so the hash-keyed
    strategies (ght/dht) can run the same deployment-relative workload --
    the full-roster scale ladder and the strategy-crossover sweeps use this.
    """
    return build_query0_keyed(
        num_nodes=len(topology.node_ids), seed=seed, window_size=window_size
    )


@register_query_builder("query0-near")
def _build_query0_near(topology, seed: int = 1, window_size: int = 3):
    """Query 0 between a deep node and its deepest neighbor.

    The strategy-crossover workload: both endpoints sit far down the routing
    tree next to each other, so an in-network join placement pays one hop
    per cycle while the through-the-base strategies pay the full tree depth.
    The endpoint draw is deployment-relative (``seed`` rotates among the
    eight deepest candidates) and the query carries no static join key, so
    exploration stays a single cheap probe per pair at every rung.
    """
    depths = topology.shortest_hops_view(topology.base_id)
    ranked = sorted(
        (node for node in topology.node_ids if node != topology.base_id),
        key=lambda node: (-depths.get(node, -1), node),
    )
    far = ranked[seed % 8]
    neighbors = [n for n in topology.neighbors(far) if n != topology.base_id]
    mate = max(neighbors, key=lambda n: (depths.get(n, -1), -n))
    return build_query0(source_id=far, target_id=mate, window_size=window_size)


def _preset_num_nodes(preset: str, num_nodes: int) -> int:
    """The node count a preset actually supports (grid needs a square)."""
    if preset == "grid":
        side = max(2, int(round(num_nodes ** 0.5)))
        return side * side
    return num_nodes


def _default_ratios(ratios: Optional[Sequence[str]]) -> List[str]:
    if ratios is None:
        return [label for label, _ in RATIO_LADDER]
    return list(ratios)


# ---------------------------------------------------------------------------
# Figures 2 and 3: total traffic and base-station load for Queries 1 and 2
# ---------------------------------------------------------------------------

def query_traffic_scenario(
    query: str,
    name: str,
    ratios: Optional[Sequence[str]] = None,
    join_selectivities: Optional[Sequence[float]] = None,
    algorithms: Sequence[str] = tuple(FIGURE2_ALGORITHMS),
    accounting: str = "bytes",
) -> ScenarioSpec:
    """The declarative Figure 2/3 (or 19/20) sweep: ratio x sigma_st grid."""
    ratios = _default_ratios(ratios)
    sweep = list(join_selectivities or JOIN_SELECTIVITIES)
    return ScenarioSpec(
        name=name,
        description=f"{query} traffic/base-load sweep over producer ratios "
                    "and join selectivities",
        query=query,
        algorithms=tuple(algorithms),
        data={"ratio": ratios[0], "sigma_st": sweep[0]},
        grid={"ratio": ratios, "sigma_st": sweep},
        accounting=accounting,
    )


def query_traffic_rows(sweep) -> List[Dict[str, object]]:
    """Figures 2 and 3: total traffic and base-station load per algorithm."""
    rows: List[Dict[str, object]] = []
    for group in sweep.groups:
        for algorithm, aggregate in group.aggregates.items():
            rows.append({
                "ratio": group.setting["ratio"],
                "sigma_st": group.setting["sigma_st"],
                "algorithm": algorithm,
                "total_traffic_kb": aggregate.mean("total_traffic") / 1000.0,
                "base_traffic_kb": aggregate.mean("base_traffic") / 1000.0,
                "max_node_load_kb": aggregate.mean("max_node_load") / 1000.0,
                "computation_traffic_kb": aggregate.mean("computation_traffic") / 1000.0,
                "total_ci95_kb": aggregate.confidence_95("total_traffic") / 1000.0,
            })
    return rows


# ---------------------------------------------------------------------------
# Figure 4 / Figure 8: cost-model validation (optimize for wrong selectivities)
# ---------------------------------------------------------------------------

def fig04_scenario(true_ratios: Optional[Sequence[str]] = None,
                   estimated_ratios: Optional[Sequence[str]] = None,
                   ) -> ScenarioSpec:
    """The declarative Figure 4 sweep: Query 0, true x estimated ratio grid.

    The paper optimizes Query 0 (sigma_st = 20 %, w = 3) for each of the five
    selectivity ratios while the data follows one true ratio; the dark (true)
    bar should be the lowest in each group.
    """
    true_ratios = _default_ratios(true_ratios)
    estimated_ratios = _default_ratios(estimated_ratios)
    return ScenarioSpec(
        name="fig04",
        description="pairwise cost-model validation on Query 0 "
                    "(data follows true_ratio, optimizer assumes assumed_ratio)",
        query="query0-random",
        query_kwargs={"seed": 1},
        algorithms=("innet",),
        data={"ratio": true_ratios[0], "sigma_st": 0.20},
        grid={"true_ratio": list(true_ratios),
              "assumed_ratio": list(estimated_ratios)},
        workload_seed_base=200,
    )


def fig08_scenario(true_ratios: Optional[Sequence[str]] = None,
                   estimated_ratios: Optional[Sequence[str]] = None,
                   ) -> ScenarioSpec:
    """The declarative Figure 8 sweep: MPO cost-model validation.

    The query axis is composite -- each query carries its own paper
    join selectivity (Query 1 at 5 %, Query 2 at 10 %).
    """
    true_ratios = _default_ratios(true_ratios)
    estimated_ratios = _default_ratios(estimated_ratios)
    return ScenarioSpec(
        name="fig08",
        description="MPO cost-model validation for Queries 1 and 2",
        algorithms=("innet-cmpg",),
        data={"ratio": true_ratios[0], "sigma_st": 0.05},
        grid={"workload": [{"query": "query1", "sigma_st": 0.05},
                           {"query": "query2", "sigma_st": 0.10}],
              "true_ratio": list(true_ratios),
              "assumed_ratio": list(estimated_ratios)},
        workload_seed_base=200,
    )


def estimate_sensitivity_rows(sweep) -> List[Dict[str, object]]:
    """Figures 4 and 8: per true ratio, which estimate ran cheapest."""
    per_true: Dict[tuple, List[tuple]] = {}
    for group in sweep.groups:
        query = group.setting.get("query")
        key = (query, group.setting["true_ratio"])
        (aggregate,) = group.aggregates.values()
        mean = aggregate.mean("total_traffic")
        per_true.setdefault(key, []).append((group.setting["assumed_ratio"], mean))
    rows: List[Dict[str, object]] = []
    for (query, true_label), entries in per_true.items():
        best_estimate = min(entries, key=lambda entry: entry[1])[0]
        for estimate_label, traffic in entries:
            row: Dict[str, object] = {
                "true_ratio": true_label,
                "estimated_ratio": estimate_label,
                "is_true_estimate": estimate_label == true_label,
                "total_traffic_kb": traffic / 1000.0,
                "best_estimate": best_estimate,
            }
            if query is not None:
                row["query"] = query
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 5: load distribution of the most loaded nodes
# ---------------------------------------------------------------------------

def fig05_scenario(algorithms: Optional[Sequence[str]] = None) -> ScenarioSpec:
    """The declarative Figure 5 run set: one run per algorithm, Query 1."""
    algorithms = list(algorithms or ["naive", "base", "innet", "innet-cm",
                                     "innet-cmg", "innet-cmp", "innet-cmpg"])
    return ScenarioSpec(
        name="fig05",
        description="per-node load of the most loaded nodes (Query 1)",
        query="query1",
        algorithms=tuple(algorithms),
        data={"sigma_s": 0.5, "sigma_t": 0.5, "sigma_st": 0.2},
        runs=1,
        workload_seed_base=300,
    )


def load_distribution_rows(sweep) -> List[Dict[str, object]]:
    """Figure 5: per-node load of the 15 most loaded nodes, Query 1."""
    rows: List[Dict[str, object]] = []
    for algorithm, aggregate in sweep.only().items():
        report = aggregate.runs[0].report
        for rank, (node_id, load) in enumerate(report.top_loaded_nodes[:15], 1):
            rows.append({
                "algorithm": algorithm,
                "rank": rank,
                "node": node_id,
                "load_kb": load / 1000.0,
            })
    return rows


# ---------------------------------------------------------------------------
# Figures 6 and 7: centralized vs distributed optimization
# ---------------------------------------------------------------------------

def _random_pairs(topology, count: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    candidates = [n for n in topology.node_ids if n != topology.base_id]
    pairs = []
    while len(pairs) < count:
        source, target = rng.choice(candidates, size=2, replace=False)
        pairs.append((int(source), int(target)))
    return pairs


@register_run_kind("initiation")
def _run_initiation(spec: RunSpec):
    """Measure one initiation scheme's traffic and latency (Figure 6)."""
    params = spec.params_dict()
    topology = build_topology(
        None, preset=spec.topology_preset, seed=spec.topology_seed,
        num_nodes=spec.num_nodes,
    )
    pairs = _random_pairs(topology, int(params.get("num_pairs", 10)),
                          seed=int(params.get("pair_seed", 1)))
    if spec.algorithm == "centralized":
        involved = sorted({node for pair in pairs for node in pair})
        simulator = NetworkSimulator(topology.copy())
        result = centralized_initiation(topology, involved, simulator=simulator)
        return measurement_report(
            "initiation", "centralized",
            total_traffic=result.total_traffic,
            base_traffic=result.traffic_at_base,
            latency_cycles=float(result.latency_cycles),
        )
    if spec.algorithm == "distributed":
        simulator = NetworkSimulator(topology.copy())
        substrate = MultiTreeSubstrate(
            topology, num_trees=int(params.get("num_trees", 3))
        )
        sizes = MessageSizes()
        for source, target in pairs:
            route = substrate.best_route(source, target)
            simulator.transfer(route, sizes.explore(len(route)), MessageKind.EXPLORE)
            simulator.transfer(list(reversed(route)), sizes.explore(len(route)),
                               MessageKind.EXPLORE_REPLY)
        return measurement_report(
            "initiation", "distributed",
            total_traffic=simulator.stats.total(),
            base_traffic=simulator.stats.at_base(topology.base_id),
            latency_cycles=float(distributed_initiation_latency(topology, pairs)),
        )
    raise ValueError(f"unknown initiation scheme {spec.algorithm!r}")


def fig06_scenario(num_pairs: int = 10) -> ScenarioSpec:
    """The declarative Figure 6 comparison: one run per initiation scheme."""
    return ScenarioSpec(
        name="fig06",
        kind="initiation",
        description="centralized vs distributed initiation traffic/latency",
        algorithms=("centralized", "distributed"),
        runs=1,
        params={"num_pairs": num_pairs, "pair_seed": 1},
        metrics=("total_traffic", "base_traffic", "latency_cycles"),
    )


def initiation_rows(sweep) -> List[Dict[str, object]]:
    """Figure 6: initiation traffic at the base and latency, centralized vs
    distributed optimization."""
    return [
        {
            "scheme": scheme,
            "traffic_at_base_kb": aggregate.mean("base_traffic") / 1000.0,
            "total_traffic_kb": aggregate.mean("total_traffic") / 1000.0,
            "latency_cycles": aggregate.mean("latency_cycles"),
        }
        for scheme, aggregate in sweep.only().items()
    ]


#: The Figure 7 workload settings: label -> (sigma_s, sigma_t, sigma_st).
_FIG07_WORKLOADS = {
    "paper(1,0,0)": (1.0, 0.0, 0.0),
    "symmetric(1,1,0)": (1.0, 1.0, 0.0),
}


@register_run_kind("placement-quality")
def _run_placement_quality(spec: RunSpec):
    """Distributed join-node placement cost vs the global optimum (Figure 7)."""
    params = spec.params_dict()
    setting = spec.setting_dict()
    num_nodes = _preset_num_nodes(spec.topology_preset, spec.num_nodes)
    topology = build_topology(
        None, preset=spec.topology_preset, seed=spec.topology_seed,
        num_nodes=num_nodes,
    )
    pairs = _random_pairs(topology, int(params.get("num_pairs", 10)),
                          seed=int(params.get("pair_seed", 2)))
    substrate = MultiTreeSubstrate(
        topology, num_trees=int(params.get("num_trees", 3))
    )
    sigma_s, sigma_t, sigma_st = _FIG07_WORKLOADS[setting["workload"]]
    selectivities = Selectivities(sigma_s, sigma_t, sigma_st)
    optimal = optimal_pair_placements(topology, pairs, selectivities, window_size=1)
    optimal_cost = sum(cost for _, cost in optimal.values())
    routes = CandidateRoutes.build(
        pairs, [(route,) for route in substrate.best_routes(pairs)],
        substrate.hops_to_base_array())
    table = PairTable(routes, [selectivities] * len(pairs), substrate.base_path,
                      topology.base_id)
    table.place(np.arange(len(pairs)), 1)
    distributed_cost = 0.0
    for cost in table.expected_cost.tolist():
        distributed_cost += cost
    return measurement_report(
        "placement", spec.algorithm,
        optimal_cost=optimal_cost,
        distributed_cost=distributed_cost,
        overhead_percent=(100.0 * (distributed_cost - optimal_cost) / optimal_cost
                          if optimal_cost else 0.0),
    )


def fig07_scenario(num_pairs: int = 10) -> ScenarioSpec:
    """The declarative Figure 7 sweep: topologies x workload settings."""
    return ScenarioSpec(
        name="fig07",
        kind="placement-quality",
        description="distributed placement cost vs the global optimum",
        algorithms=("distributed",),
        runs=1,
        grid={"topology_preset": ["dense", "medium", "moderate", "sparse", "grid"],
              "workload": list(_FIG07_WORKLOADS)},
        params={"num_pairs": num_pairs, "pair_seed": 2},
        metrics=("optimal_cost", "distributed_cost", "overhead_percent"),
    )


def placement_quality_rows(sweep) -> List[Dict[str, object]]:
    """Figure 7: expected computation traffic of the distributed placement vs
    the optimum computed with global knowledge, across the five topologies.

    The paper's setting (sigma_s = 1, sigma_t = sigma_st = 0) makes the
    optimum trivially "join at the source"; the symmetric variant
    (sigma_s = sigma_t = 1), where the placement is non-trivial, shows the
    distributed scheme stays within a few percent of the optimum.
    """
    rows: List[Dict[str, object]] = []
    for group in sweep.groups:
        aggregate = group.aggregates["distributed"]
        rows.append({
            "topology": group.setting["topology_preset"],
            "workload": group.setting["workload"],
            "optimal_cost": aggregate.mean("optimal_cost"),
            "distributed_cost": aggregate.mean("distributed_cost"),
            "overhead_percent": aggregate.mean("overhead_percent"),
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 9: MPO contribution breakdown
# ---------------------------------------------------------------------------

def fig09a_scenario(durations: Optional[Sequence[int]] = None,
                    algorithms: Optional[Sequence[str]] = None) -> ScenarioSpec:
    """The declarative Figure 9a sweep: total traffic vs query duration.

    With explicit *durations* the cycles axis is exact; without, the
    scale-relative ``cycles_factor`` axis sweeps 0.5x/1x/2x the scale's
    cycle count.
    """
    algorithms = list(algorithms or ["naive", "base", "ght", "innet", "innet-cm",
                                     "innet-cmg", "innet-cmpg"])
    grid: Dict[str, Sequence[object]] = (
        {"cycles": list(durations)} if durations is not None
        else {"cycles_factor": [0.5, 1.0, 2.0]}
    )
    return ScenarioSpec(
        name="fig09a",
        description="total traffic against query duration (Query 2)",
        query="query2",
        algorithms=tuple(algorithms),
        data={"sigma_s": 0.5, "sigma_t": 0.5, "sigma_st": 0.1},
        grid=grid,
        runs=1,
        workload_seed_base=400,
    )


def duration_rows(sweep) -> List[Dict[str, object]]:
    """Figure 9a: total traffic against query duration, Query 2.

    The duration is read from the runs, so the exact ``cycles`` axis and the
    scale-relative ``cycles_factor`` axis shape alike.
    """
    rows: List[Dict[str, object]] = []
    for group in sweep.groups:
        for algorithm, aggregate in group.aggregates.items():
            rows.append({
                "cycles": aggregate.runs[0].report.cycles,
                "algorithm": algorithm,
                "total_traffic_kb": aggregate.mean("total_traffic") / 1000.0,
            })
    return rows


def fig09b_scenario(join_selectivities: Optional[Sequence[float]] = None,
                    cycles: Optional[int] = None) -> ScenarioSpec:
    """The declarative Figure 9b sweep (cycles=None resolves to the scale's
    long_cycles -- this is the paper's long-duration experiment)."""
    sweep = list(join_selectivities or JOIN_SELECTIVITIES)
    return ScenarioSpec(
        name="fig09b",
        description="MPO variants at long duration vs join selectivity (Query 2)",
        query="query2",
        algorithms=("innet", "innet-cm", "innet-cmg", "innet-cmpg"),
        data={"sigma_s": 0.5, "sigma_t": 0.5, "sigma_st": sweep[0]},
        grid={"sigma_st": sweep},
        cycles=cycles,
        use_long_cycles=True,
    )


def join_selectivity_rows(sweep) -> List[Dict[str, object]]:
    """Figure 9b: Innet / -cm / -cmg / -cmpg at long duration vs sigma_st."""
    rows: List[Dict[str, object]] = []
    for group in sweep.groups:
        for algorithm, aggregate in group.aggregates.items():
            rows.append({
                "sigma_st": group.setting["sigma_st"],
                "algorithm": algorithm,
                "total_traffic_kb": aggregate.mean("total_traffic") / 1000.0,
            })
    return rows
