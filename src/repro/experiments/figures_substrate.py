"""Appendix C/F/G experiments: path quality, mesh networks, mobility; Table 3.

* Figures 16-18: path quality of the multi-tree substrate against GPSR/GHT and
  a DHT, on mote and mesh networks, and scale-up from 50 to 200 nodes.
* Figures 19-20: the Query 1 / Query 2 comparison on 802.11 mesh networks,
  counted in messages rather than bytes.
* Table 3: the analytic cost model validated against simulated traffic.
* Appendix G: mobile leaf nodes -- routing-table update latency and traffic.

Like the join figures, every experiment here is a scenario factory plus a
row shaper: the measurement-style experiments are registered *run kinds*
(``path-quality``, ``costmodel-validation``, ``mobility``) so they
parallelize, persist and resume exactly like join sweeps.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.cost_model import grouped_base_cost, naive_cost, through_base_cost
from repro.engine import (
    MESH_ALGORITHMS,
    RunSpec,
    ScenarioSpec,
    build_topology,
    measurement_report,
    register_run_kind,
    run_single,
)
from repro.engine.workload import build_query, memoized_workload
from repro.experiments.figures_joins import _preset_num_nodes, query_traffic_scenario
from repro.network.links import lossy_links
from repro.network.message import MessageSizes
from repro.query.analysis import analyze_query
from repro.routing import DHTSubstrate, GHTSubstrate, MultiTreeSubstrate
from repro.routing.paths import path_quality_for_pairs
from repro.routing.tree import RoutingTree


def _random_pairs(topology, count: int, seed: int = 0):
    import numpy as np

    rng = np.random.default_rng(seed)
    candidates = [n for n in topology.node_ids if n != topology.base_id]
    pairs = []
    while len(pairs) < count:
        a, b = rng.choice(candidates, size=2, replace=False)
        pairs.append((int(a), int(b)))
    return pairs


# ---------------------------------------------------------------------------
# Figures 16-18: path quality
# ---------------------------------------------------------------------------

@register_run_kind("path-quality")
def _run_path_quality(spec: RunSpec):
    """Path quality of one routing scheme on one topology (Figures 16-18)."""
    params = spec.params_dict()
    num_nodes = _preset_num_nodes(spec.topology_preset, spec.num_nodes)
    topology = build_topology(
        None, preset=spec.topology_preset, seed=spec.topology_seed,
        num_nodes=num_nodes,
    )
    num_pairs = int(params.get("num_pairs", 200))
    pairs = _random_pairs(topology, num_pairs, seed=int(params.get("pair_seed", 3)))
    scheme = spec.algorithm
    if scheme.endswith("-tree"):
        substrate = MultiTreeSubstrate(
            topology, num_trees=int(params.get("num_trees", 3))
        )
        trees = int(scheme.split("-")[0])
        quality = path_quality_for_pairs(
            substrate.paths_for_pairs(pairs, num_trees=trees)
        )
    elif scheme in ("gpsr", "dht"):
        hashed = GHTSubstrate(topology) if scheme == "gpsr" else DHTSubstrate(topology)
        quality = path_quality_for_pairs(
            hashed.paths_for_pairs(pairs, key_of=lambda pair: pair[0] % 13)
        )
    elif scheme == "full-graph":
        # "Full graph" lower bound: true shortest paths.
        shortest = {
            pair: topology.shortest_path(pair[0], pair[1]) or [pair[0]]
            for pair in pairs
        }
        quality = path_quality_for_pairs(shortest)
    else:
        raise ValueError(f"unknown path-quality scheme {scheme!r}")
    return measurement_report(
        "path-quality", scheme,
        avg_path_length=quality.average_path_length,
        max_node_load=float(quality.max_node_load),
        max_load_per_path=float(quality.max_node_load) / max(1, num_pairs),
    )


_MOTE_PRESETS = ["dense", "medium", "moderate", "sparse", "grid"]


def path_quality_scenario(name: str, hash_substrate: str,
                          num_pairs: int = 200) -> ScenarioSpec:
    """The declarative Figure 16/17 sweep: every topology x every scheme."""
    return ScenarioSpec(
        name=name,
        kind="path-quality",
        description="path length and node load of the multi-tree substrate "
                    f"vs {hash_substrate} and the full-graph bound",
        algorithms=("1-tree", "2-tree", "3-tree", hash_substrate, "full-graph"),
        runs=1,
        grid={"topology_preset": list(_MOTE_PRESETS)},
        params={"num_pairs": num_pairs, "pair_seed": 3},
        metrics=("avg_path_length", "max_node_load"),
    )


def fig18_scenario(sizes: Sequence[int] = (50, 100, 200),
                   num_pairs: int = 200) -> ScenarioSpec:
    """The declarative Figure 18 sweep: the medium topology scaled up."""
    return ScenarioSpec(
        name="fig18",
        kind="path-quality",
        description="multi-tree path quality at 50-200 mesh nodes",
        algorithms=("1-tree", "2-tree", "3-tree"),
        topology_preset="medium",
        topology_seed=1,
        runs=1,
        grid={"num_nodes": list(sizes)},
        params={"num_pairs": num_pairs, "pair_seed": 4},
        metrics=("avg_path_length", "max_load_per_path"),
    )


def path_quality_rows(sweep) -> List[Dict[str, object]]:
    """Figures 16 and 17: average path length and max node load per scheme,
    on mote networks (vs GPSR) and on a mesh network (vs a DHT)."""
    rows: List[Dict[str, object]] = []
    for group in sweep.groups:
        for scheme, aggregate in group.aggregates.items():
            rows.append({
                "topology": group.setting["topology_preset"],
                "scheme": scheme,
                "avg_path_length": aggregate.mean("avg_path_length"),
                "max_node_load": aggregate.mean("max_node_load"),
            })
    return rows


def scaleup_rows(sweep) -> List[Dict[str, object]]:
    """Figure 18: path quality of the medium topology at 50, 100 and 200 nodes."""
    rows: List[Dict[str, object]] = []
    for group in sweep.groups:
        for scheme, aggregate in group.aggregates.items():
            rows.append({
                "num_nodes": group.setting["num_nodes"],
                "scheme": scheme,
                "avg_path_length": aggregate.mean("avg_path_length"),
                "max_load_per_path": aggregate.mean("max_load_per_path"),
            })
    return rows


# ---------------------------------------------------------------------------
# Figures 19-20: mesh-network versions of the Query 1 / Query 2 comparison
# ---------------------------------------------------------------------------

def mesh_query_scenario(query: str, name: str,
                        ratios: Optional[Sequence[str]] = None,
                        join_selectivities: Optional[Sequence[float]] = None,
                        ) -> ScenarioSpec:
    """The declarative Figure 19/20 sweep: message accounting, mesh algorithms."""
    return query_traffic_scenario(
        query, name, ratios, join_selectivities,
        algorithms=tuple(MESH_ALGORITHMS), accounting="messages",
    ).with_overrides(
        description=f"{query} message counts on a mesh network over producer "
                    "ratios and join selectivities",
    )


def mesh_query_rows(sweep) -> List[Dict[str, object]]:
    """Figures 19 and 20: Queries 1 and 2 on a 100-node mesh network,
    counted in messages."""
    rows: List[Dict[str, object]] = []
    for group in sweep.groups:
        for algorithm, aggregate in group.aggregates.items():
            rows.append({
                "ratio": group.setting["ratio"],
                "sigma_st": group.setting["sigma_st"],
                "algorithm": algorithm,
                "total_messages_k": aggregate.mean("total_traffic") / 1000.0,
                "base_messages_k": aggregate.mean("base_traffic") / 1000.0,
                "computation_messages_k": aggregate.mean("computation_traffic") / 1000.0,
            })
    return rows


# ---------------------------------------------------------------------------
# Table 3: analytic cost model vs simulated traffic
# ---------------------------------------------------------------------------

@register_run_kind("costmodel-validation")
def _run_costmodel_validation(spec: RunSpec):
    """One algorithm's analytic per-cycle cost vs its simulated traffic."""
    topology_key = (spec.topology_preset, spec.topology_seed, spec.num_nodes)
    topology = build_topology(
        None, preset=spec.topology_preset, seed=spec.topology_seed,
        num_nodes=spec.num_nodes,
    )
    query_key = (spec.query, spec.query_kwargs)
    query = build_query(spec.query, spec.query_kwargs,
                        topology=topology, topology_key=topology_key)
    analysis = analyze_query(query)
    tree = RoutingTree(topology)
    sizes = MessageSizes()
    selectivities = spec.data_selectivities

    eligible_s = [n for n in topology.node_ids
                  if analysis.node_eligible("S", topology.nodes[n].static_attributes)]
    eligible_t = [n for n in topology.node_ids
                  if analysis.node_eligible("T", topology.nodes[n].static_attributes)]
    s_hops = [float(tree.depth_of(n)) for n in eligible_s]
    t_hops = [float(tree.depth_of(n)) for n in eligible_t]

    # Fraction of producers surviving the static pre-filter (Base algorithm).
    def _has_partner(node, own_eligible_is_source):
        own_attrs = topology.nodes[node].static_attributes
        others = eligible_t if own_eligible_is_source else eligible_s
        for other in others:
            other_attrs = topology.nodes[other].static_attributes
            pair = (own_attrs, other_attrs) if own_eligible_is_source else (other_attrs, own_attrs)
            if analysis.pair_joins_statically(*pair):
                return True
        return False

    if spec.algorithm == "naive":
        costs = naive_cost(selectivities, s_hops, t_hops, query.window_size)
    elif spec.algorithm == "base":
        phi_s = sum(1 for n in eligible_s if _has_partner(n, True)) / max(1, len(eligible_s))
        phi_t = sum(1 for n in eligible_t if _has_partner(n, False)) / max(1, len(eligible_t))
        costs = grouped_base_cost(selectivities, s_hops, t_hops, query.window_size,
                                  phi_s_t=phi_s, phi_t_s=phi_t)
    elif spec.algorithm == "yang07":
        costs = through_base_cost(selectivities, s_hops, t_hops, query.window_size)
    else:
        raise ValueError(
            f"no analytic cost formula for {spec.algorithm!r}; Table 3 covers "
            "the tree-depth-only strategies naive/base/yang07"
        )
    predicted = costs.computation_per_cycle * spec.cycles * sizes.data_tuple(1)

    data_source = memoized_workload(
        topology_key, topology, query_key, query,
        selectivities, seed=spec.workload_seed,
    )
    result = run_single(query, topology, data_source, spec.algorithm,
                        spec.assumed_selectivities, cycles=spec.cycles,
                        seed=spec.seed,
                        link_model=(None if spec.link_loss is None else
                                    lossy_links(spec.link_loss,
                                                seed=spec.link_seed)))
    report = result.report
    measured = report.computation_traffic
    report.extra.update({
        "predicted_traffic": predicted,
        "predicted_measured_ratio": measured / predicted if predicted else float("nan"),
        "predicted_storage_tuples": float(costs.storage_tuples),
    })
    return report


def table3_scenario(cycles: Optional[int] = None) -> ScenarioSpec:
    """The declarative Table 3 run set: analytic formulas vs the simulator."""
    return ScenarioSpec(
        name="table3",
        kind="costmodel-validation",
        description="analytic per-cycle cost formulas validated against "
                    "simulated computation traffic",
        query="query1",
        algorithms=("naive", "base", "yang07"),
        data={"sigma_s": 0.5, "sigma_t": 0.5, "sigma_st": 0.2},
        cycles=cycles,
        runs=1,
        workload_seed_base=900,
        metrics=("predicted_traffic", "computation_traffic",
                 "predicted_measured_ratio"),
    )


def cost_validation_rows(sweep) -> List[Dict[str, object]]:
    """Table 3: the analytic per-cycle cost formulas, validated against the
    simulator for the strategies whose cost depends only on tree depths
    (Naive, Base, Yang+07).  The analytic figure counts expected tuple-hops;
    multiplying by the data-tuple size gives predicted bytes, which should be
    within a few percent of the measured computation traffic."""
    rows: List[Dict[str, object]] = []
    for algorithm, aggregate in sweep.only().items():
        report = aggregate.runs[0].report
        rows.append({
            "algorithm": algorithm,
            "predicted_kb": report.extra["predicted_traffic"] / 1000.0,
            "measured_kb": report.computation_traffic / 1000.0,
            "ratio": report.extra["predicted_measured_ratio"],
            "predicted_storage_tuples": report.extra["predicted_storage_tuples"],
        })
    return rows


# ---------------------------------------------------------------------------
# Appendix G: mobile leaf nodes
# ---------------------------------------------------------------------------

@register_run_kind("mobility")
def _run_mobility(spec: RunSpec):
    """One leaf-move attempt (Appendix G); topology_seed is the attempt seed.

    Builds a fresh (mutated) deployment, moves the last leaf node one radio
    range away and measures the summary-update traffic the affected routing
    trees re-aggregate, plus the propagation delay in cycles.  Attempts with
    no movable leaf or no in-range destination report ``moved = 0``.
    """
    from repro.network.mobility import candidate_positions_near, is_leaf, move_leaf_node
    from repro.network.simulator import NetworkSimulator
    from repro.summaries import BloomFilterSummary

    params = spec.params_dict()
    num_bits = int(params.get("summary_bits", 128))
    num_trees = int(params.get("num_trees", 3))
    # the run mutates its deployment, so never the shared memoized instance
    topology = build_topology(
        None, preset=spec.topology_preset, seed=spec.topology_seed,
        num_nodes=spec.num_nodes, fresh=True,
    )
    substrate = MultiTreeSubstrate(topology, num_trees=num_trees)
    mobile = next(
        (n for n in reversed(topology.node_ids)
         if n != topology.base_id and is_leaf(topology, n)),
        None,
    )
    if mobile is None:
        return measurement_report("mobility", spec.algorithm, moved=0.0)
    candidates = candidate_positions_near(topology, mobile, radius=topology.radio_range)
    simulator = NetworkSimulator(topology)
    event = None
    for position in candidates:
        try:
            event = move_leaf_node(topology, mobile, position)
            break
        except ValueError:
            continue
    if event is None:
        return measurement_report("mobility", spec.algorithm, moved=0.0)
    # The affected trees re-aggregate summaries from the mobile node's new
    # and old attachment points up to each root.
    update_traffic = 0.0
    max_depth = 0
    summary_bytes = BloomFilterSummary(num_bits=num_bits).size_bytes() + 11
    for tree in substrate.trees:
        for anchor in set(event.removed_links) | set(event.added_links):
            if not tree.covers(anchor):
                continue
            path = tree.path_to_root(anchor)
            simulator.transfer(path, summary_bytes)
            update_traffic += summary_bytes * (len(path) - 1)
            max_depth = max(max_depth, len(path) - 1)
    return measurement_report(
        "mobility", spec.algorithm,
        total_traffic=update_traffic,
        moved=1.0,
        node=float(mobile),
        changed_neighbors=float(len(event.changed_neighbors)),
        update_traffic_bytes=update_traffic,
        propagation_cycles=float(max_depth + len(substrate.trees)),
    )


def appg_scenario(num_moves: int = 5) -> ScenarioSpec:
    """The declarative Appendix G sweep: ``num_moves * 4`` move attempts.

    Attempts are independent and deterministic per seed; the shaper keeps
    the first *num_moves* successful ones.
    """
    return ScenarioSpec(
        name="appg",
        kind="mobility",
        description="leaf mobility: summary-update traffic and propagation "
                    "delay per move",
        algorithms=("multi-tree",),
        topology_preset="medium",
        runs=1,
        grid={"topology_seed": list(range(1, num_moves * 4 + 1))},
        params={"summary_bits": 128, "num_trees": 3},
        metrics=("update_traffic_bytes", "propagation_cycles"),
    )


def mobility_rows(sweep) -> List[Dict[str, object]]:
    """Appendix G: propagation delay and traffic for a moving leaf node.

    The paper reports ~19.4 cycles to propagate routing-table updates and
    ~1.2 kB of traffic for one move in the medium random topology.
    :func:`appg_scenario` makes four attempts per wanted move, so the first
    ``attempts // 4`` successful moves are kept.
    """
    num_moves = len(sweep.groups) // 4
    rows: List[Dict[str, object]] = []
    for group in sweep.groups:
        if len(rows) >= num_moves:
            break
        report = group.aggregates["multi-tree"].runs[0].report
        if not report.extra.get("moved"):
            continue
        rows.append({
            "move": len(rows),
            "node": int(report.extra["node"]),
            "changed_neighbors": int(report.extra["changed_neighbors"]),
            "update_traffic_bytes": report.extra["update_traffic_bytes"],
            "propagation_cycles": report.extra["propagation_cycles"],
        })
    return rows
