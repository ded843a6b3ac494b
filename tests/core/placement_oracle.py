"""The scalar placement and GROUPOPT: the reference the pair table is held to.

One Python object per pair, exactly as the cost model reads: per candidate
path a strict ``<`` scan over its join nodes (:func:`place_join_node`), the
first cheapest path (:func:`best_placement`), the nomination messages of
Section 3.2, and Algorithm 1 over per-pair decisions (:func:`decide_group`,
:func:`apply_decision`), which sums each producer's join nodes one after the
other.  The pair table and ``GroupOptimizer`` must agree with these to the
bit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.cost_model import Selectivities, innet_pair_cost, pair_at_base_cost
from repro.core.group_opt import Group, GroupPlacements
from repro.core.placement import PlacementDecision
from repro.network.message import MessageKind, MessageSizes
from repro.routing.multitree import PairPath

Pair = Tuple[int, int]


def hops(path: Sequence[int]) -> int:
    return max(0, len(path) - 1)


def group_cost_difference(
    sigma_p: float,
    sigma_st: float,
    w: int,
    join_node_distances: Mapping[int, float],
    pairs_per_join_node: Mapping[int, int],
    join_node_base_distances: Mapping[int, float],
    d_pr: float,
) -> float:
    """The GROUPOPT per-producer cost difference (Section 5.2).

    ``Delta C_p = sigma_p * sum_j (D_pj + w * sigma_st * N_pj * D_jr) - sigma_p * D_pr``

    A negative value means the fully in-network computation is cheaper for
    this producer than shipping its data to the base station.
    """
    in_network = 0.0
    for join_node, d_pj in join_node_distances.items():
        n_pj = pairs_per_join_node.get(join_node, 0)
        d_jr = join_node_base_distances.get(join_node, 0.0)
        in_network += d_pj + w * sigma_st * n_pj * d_jr
    return sigma_p * in_network - sigma_p * d_pr


def place_join_node(pair_path: PairPath, selectivities: Selectivities,
                    window_size: int, base_path_of, base_id: int) -> PlacementDecision:
    """Choose the cheapest join node for one pair on one candidate path."""
    path = pair_path.path
    hops_to_base = pair_path.hops_to_base
    if not hops_to_base or len(hops_to_base) != len(path):
        raise ValueError("pair path must be annotated with hops to the base station")
    length = len(path)
    best_index = 0
    best_cost = float("inf")
    for index, d_jr in enumerate(hops_to_base):
        cost = innet_pair_cost(selectivities, window_size, d_sj=index,
                               d_tj=length - 1 - index, d_jr=d_jr)
        if cost < best_cost:
            best_cost = cost
            best_index = index
    base_cost = pair_at_base_cost(selectivities, d_sr=hops_to_base[0],
                                  d_tr=hops_to_base[-1])
    if base_cost < best_cost:
        return PlacementDecision(
            source=pair_path.source, target=pair_path.target, join_node=base_id,
            at_base=True, expected_cost=base_cost, base_cost=base_cost,
            source_to_join=list(base_path_of(pair_path.source)),
            target_to_join=list(base_path_of(pair_path.target)),
            join_to_base=[base_id],
        )
    join_node = path[best_index]
    return PlacementDecision(
        source=pair_path.source, target=pair_path.target, join_node=join_node,
        at_base=(join_node == base_id), expected_cost=best_cost, base_cost=base_cost,
        source_to_join=list(path[: best_index + 1]),
        target_to_join=list(reversed(path[best_index:])),
        join_to_base=list(base_path_of(join_node)),
    )


def best_placement(candidate_paths: Sequence[PairPath], selectivities: Selectivities,
                   window_size: int, base_path_of, base_id: int) -> PlacementDecision:
    """Place the join node considering every candidate path for a pair."""
    if not candidate_paths:
        raise ValueError("need at least one candidate path")
    decisions = [place_join_node(path, selectivities, window_size, base_path_of, base_id)
                 for path in candidate_paths]
    return min(decisions, key=lambda d: d.expected_cost)


def nominations(decision: PlacementDecision,
                sizes: Optional[MessageSizes] = None) -> List[Tuple[List[int], int, MessageKind]]:
    """The nomination protocol's messages, in ship order."""
    size = (sizes or MessageSizes()).control(num_fields=3)
    sent = []
    if len(decision.target_to_join) > 1:
        sent.append((list(decision.target_to_join), size, MessageKind.NOMINATE))
    if len(decision.source_to_join) > 1:
        sent.append((list(reversed(decision.source_to_join)), size, MessageKind.NOMINATE))
    return sent


def producer_delta(hops_to_base: Callable[[int], int], producer: int, is_source: bool,
                   group: Group, placements: Mapping[Pair, PlacementDecision],
                   selectivities: Selectivities, window_size: int) -> float:
    """``Delta C_p`` for one producer of a group, scanning every group pair."""
    join_node_distances: Dict[int, float] = {}
    pairs_per_join_node: Dict[int, int] = {}
    join_node_base_distances: Dict[int, float] = {}
    for pair in group.pairs:
        source, target = pair
        if (is_source and source != producer) or (not is_source and target != producer):
            continue
        decision = placements.get(pair)
        if decision is None:
            continue
        join_node = decision.join_node
        distance = hops(decision.source_to_join if is_source else decision.target_to_join)
        join_node_distances.setdefault(join_node, float(distance))
        pairs_per_join_node[join_node] = pairs_per_join_node.get(join_node, 0) + 1
        join_node_base_distances.setdefault(join_node, float(hops(decision.join_to_base)))
    return group_cost_difference(
        sigma_p=selectivities.sigma_s if is_source else selectivities.sigma_t,
        sigma_st=selectivities.sigma_st,
        w=window_size, join_node_distances=join_node_distances,
        pairs_per_join_node=pairs_per_join_node,
        join_node_base_distances=join_node_base_distances,
        d_pr=float(hops_to_base(producer)),
    )


def decide_group(hops_to_base: Callable[[int], int], route_between, group: Group,
                 placements: Mapping[Pair, PlacementDecision],
                 selectivities: Selectivities, window_size: int,
                 ship=None, report_from: Optional[Set[int]] = None,
                 previous_decision: Optional[bool] = None,
                 sizes: Optional[MessageSizes] = None):
    """Algorithm 1 for one group: ``(use_innet, total_delta, per_producer)``."""
    sizes = sizes or MessageSizes()
    coordinator = group.coordinator
    per_producer: Dict[int, float] = {}
    for producer in sorted(group.source_members):
        per_producer[producer] = producer_delta(
            hops_to_base, producer, True, group, placements, selectivities, window_size)
    for producer in sorted(group.target_members):
        delta = producer_delta(
            hops_to_base, producer, False, group, placements, selectivities, window_size)
        per_producer[producer] = per_producer.get(producer, 0.0) + delta
    if ship is not None:
        reporters = per_producer if report_from is None else (
            set(per_producer) & set(report_from))
        for producer in sorted(reporters):
            if producer != coordinator:
                ship(route_between(producer, coordinator), sizes.control(num_fields=2),
                     MessageKind.COST_REPORT)
    total_delta = sum(per_producer.values())
    use_innet = total_delta < 0.0
    if ship is not None and (previous_decision is None or previous_decision != use_innet):
        for producer in per_producer:
            if producer != coordinator:
                ship(route_between(coordinator, producer), sizes.control(num_fields=3),
                     MessageKind.DECISION)
    return use_innet, total_delta, per_producer


def apply_decision(use_innet: bool, group: Group,
                   placements: Dict[Pair, PlacementDecision], base_id: int,
                   base_path_of) -> None:
    """Rewrite a group's placements to join at the base if so decided."""
    if use_innet:
        return
    for pair in group.pairs:
        current = placements.get(pair)
        if current is None:
            continue
        source, target = pair
        placements[pair] = PlacementDecision(
            source=source, target=target, join_node=base_id, at_base=True,
            expected_cost=current.base_cost, base_cost=current.base_cost,
            source_to_join=list(base_path_of(source)),
            target_to_join=list(base_path_of(target)),
            join_to_base=[base_id],
        )


def group_placements(group: Group,
                     placements: Mapping[Pair, PlacementDecision]) -> GroupPlacements:
    """The array form ``GroupOptimizer.decide_group`` reads, of the group's
    placed pairs in group order."""
    placed = [placements[pair] for pair in group.pairs if pair in placements]

    def column(values):
        return np.array(values, dtype=np.int64)

    return GroupPlacements(
        column([d.source for d in placed]), column([d.target for d in placed]),
        column([d.join_node for d in placed]),
        column([hops(d.source_to_join) for d in placed]),
        column([hops(d.target_to_join) for d in placed]),
        column([hops(d.join_to_base) for d in placed]),
    )
