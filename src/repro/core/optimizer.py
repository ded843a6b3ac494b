"""The decentralized pairwise optimizer (Section 3).

Given the candidate paths discovered during initiation, the optimizer places
a join node for every (s, t) pair using the cost model, always comparing
against joining at the base station, and optionally runs the multi-join-pair
group optimization of Section 5 on top.  Because the per-pair minimization is
explicit, the resulting plan is never more expensive than joining every pair
at the base station under the same initiation strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.cost_model import Selectivities
from repro.core.group_opt import GroupDecision, GroupOptimizer, build_groups
from repro.core.placement import PlacementDecision, best_placement, nomination_traffic
from repro.network.message import MessageSizes, Ship
from repro.routing.multitree import MultiTreeSubstrate, PairPath

Pair = Tuple[int, int]


@dataclass
class PairAssignment:
    """One pair's join-node assignment plus the selectivities it was based on."""

    decision: PlacementDecision
    assumed: Selectivities
    candidate_paths: List[PairPath] = field(default_factory=list)


@dataclass
class JoinPlan:
    """The complete join-node assignment for a query."""

    assignments: Dict[Pair, PairAssignment] = field(default_factory=dict)
    group_decisions: List[GroupDecision] = field(default_factory=list)

    def pairs(self) -> List[Pair]:
        return sorted(self.assignments)

    def decision_for(self, pair: Pair) -> PlacementDecision:
        return self.assignments[pair].decision

    def join_nodes(self) -> List[int]:
        return sorted({a.decision.join_node for a in self.assignments.values()})

    def pairs_at(self, join_node: int) -> List[Pair]:
        return [
            pair for pair, assignment in self.assignments.items()
            if assignment.decision.join_node == join_node
        ]

    def expected_cost_per_cycle(self) -> float:
        return sum(a.decision.expected_cost for a in self.assignments.values())

    def fraction_at_base(self) -> float:
        if not self.assignments:
            return 0.0
        at_base = sum(1 for a in self.assignments.values() if a.decision.at_base)
        return at_base / len(self.assignments)


class PairwiseOptimizer:
    """Places join nodes pair by pair and optionally per group."""

    def __init__(
        self,
        substrate: MultiTreeSubstrate,
        window_size: int,
        sizes: Optional[MessageSizes] = None,
    ) -> None:
        if window_size < 1:
            raise ValueError("window_size must be at least 1")
        self.substrate = substrate
        self.window_size = window_size
        self.sizes = sizes or MessageSizes()
        self.base_id = substrate.topology.base_id

    # ------------------------------------------------------------------
    def _base_path_of(self, node_id: int) -> List[int]:
        return self.substrate.path_to_base(node_id)

    def optimize_pairs(
        self,
        candidate_paths: Mapping[Pair, Sequence[PairPath]],
        selectivities: Mapping[Pair, Selectivities],
        ship: Optional[Ship] = None,
    ) -> JoinPlan:
        """Pairwise placement for every pair with discovered paths; with
        *ship*, each pair's nominations are sent through it."""
        plan = JoinPlan()
        for pair, paths in candidate_paths.items():
            if not paths:
                continue
            assumed = selectivities[pair]
            decision = best_placement(
                list(paths), assumed, self.window_size, self._base_path_of, self.base_id
            )
            if ship is not None:
                nomination_traffic(ship, decision, self.sizes)
            plan.assignments[pair] = PairAssignment(
                decision=decision, assumed=assumed, candidate_paths=list(paths)
            )
        return plan

    def apply_group_optimization(
        self,
        plan: JoinPlan,
        selectivities: Mapping[Pair, Selectivities],
        ship: Optional[Ship] = None,
    ) -> JoinPlan:
        """Run GROUPOPT over the plan, rewriting grouped pairs if needed;
        with *ship*, cost reports and decisions are sent through it."""
        pairs = plan.pairs()
        if not pairs:
            return plan
        groups = build_groups(pairs)
        optimizer = GroupOptimizer(
            hops_to_base=self.substrate.hops_to_base,
            route_between=self.substrate.best_route,
            sizes=self.sizes,
        )
        placements = {pair: plan.assignments[pair].decision for pair in pairs}
        for group in groups:
            group_sel = _representative_selectivities(group.pairs, selectivities)
            decision = optimizer.decide_group(
                group, placements, group_sel, self.window_size, ship=ship
            )
            plan.group_decisions.append(decision)
            optimizer.apply_decision(
                decision, placements, self.base_id, self._base_path_of
            )
        for pair in pairs:
            plan.assignments[pair].decision = placements[pair]
        return plan

    def reoptimize_pair(
        self,
        plan: JoinPlan,
        pair: Pair,
        new_selectivities: Selectivities,
    ) -> PlacementDecision:
        """Re-place one pair's join node using fresh selectivity estimates.

        Used by the adaptive executor (Section 6) when the learned estimates
        diverge from the assumed ones.  It sends nothing: the caller
        nominates the pairs whose join node actually moved.
        """
        assignment = plan.assignments[pair]
        if not assignment.candidate_paths:
            return assignment.decision
        decision = best_placement(
            assignment.candidate_paths,
            new_selectivities,
            self.window_size,
            self._base_path_of,
            self.base_id,
        )
        assignment.decision = decision
        assignment.assumed = new_selectivities
        return decision


def _representative_selectivities(
    pairs: Sequence[Pair], selectivities: Mapping[Pair, Selectivities]
) -> Selectivities:
    """Average the per-pair selectivities of a group (they are usually equal)."""
    relevant = [selectivities[pair] for pair in pairs if pair in selectivities]
    if not relevant:
        raise KeyError("no selectivities known for any pair of the group")
    n = len(relevant)
    return Selectivities(
        sigma_s=sum(s.sigma_s for s in relevant) / n,
        sigma_t=sum(s.sigma_t for s in relevant) / n,
        sigma_st=sum(s.sigma_st for s in relevant) / n,
    )
