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
from typing import AbstractSet, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost_model import Selectivities
from repro.core.group_opt import (
    GroupDecision, GroupOptimizer, GroupPlacements, build_groups,
)
from repro.core.placement import CandidateRoutes, PairTable, PlacementDecision
from repro.network.batch import PathMessages
from repro.network.message import MessageSizes, Ship
from repro.routing.multitree import MultiTreeSubstrate

Pair = Tuple[int, int]
#: ``ship_paths(messages)``: a run's ``ctx.ship_paths``
ShipPaths = Callable[[PathMessages], None]


@dataclass
class JoinPlan:
    """The complete join-node assignment for a query: its pair table."""

    table: PairTable
    #: GROUPOPT's decisions at initiation, one per group: the groups every
    #: later re-decision of this plan works over
    group_decisions: List[GroupDecision] = field(default_factory=list)

    def pairs(self) -> List[Pair]:
        pairs = self.table.pairs
        return [pairs[row] for row in self.table.sorted_rows.tolist()]

    def decision_for(self, pair: Pair) -> PlacementDecision:
        return self.table.decision(self.table.row_of[pair])

    def join_nodes(self) -> List[int]:
        return sorted(set(self.table.join.tolist()))


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
        self.window_size = window_size
        self.sizes = sizes or MessageSizes()
        self.base_id = substrate.topology.base_id
        #: GROUPOPT, with its coordinators' last decisions
        self.group_optimizer = GroupOptimizer(substrate.hops_to_base,
                                              substrate.best_route, self.sizes)
        self.use_substrate(substrate)

    def use_substrate(self, substrate: MultiTreeSubstrate) -> None:
        """Place, and route GROUPOPT's messages, on *substrate* from now on
        (a repaired copy, after a failure)."""
        self.substrate = substrate
        self.group_optimizer.hops_to_base = substrate.hops_to_base
        self.group_optimizer.route_between = substrate.best_route

    # ------------------------------------------------------------------
    def optimize_pairs(
        self,
        routes: CandidateRoutes,
        selectivities: Sequence[Selectivities],
        ship: Optional[ShipPaths] = None,
    ) -> JoinPlan:
        """Pairwise placement for every pair of *routes* under its
        selectivities (aligned with the pairs); with *ship*, every pair's
        nominations are sent through it, pair after pair."""
        table = PairTable(routes, selectivities, self.substrate.base_path,
                          self.base_id)
        rows = np.arange(len(table))
        table.place(rows, self.window_size)
        if ship is not None:
            ship(table.nomination_messages(rows, self.sizes.control(num_fields=3)))
        return JoinPlan(table)

    def apply_group_optimization(self, plan: JoinPlan, ship: Optional[Ship] = None,
                                 updated: Optional[AbstractSet[Pair]] = None) -> JoinPlan:
        """Run GROUPOPT over the plan under its pairs' assumed selectivities,
        rewriting grouped pairs if needed; with *ship*, cost reports and
        decisions are sent through it.

        The first run groups the plan's pairs, every producer reports and
        every coordinator broadcasts; its decisions are the plan's
        :attr:`~JoinPlan.group_decisions`.  With *updated* (pairs whose
        estimates were re-learned, Section 6) only the groups holding one
        of them are re-decided: only those pairs' producers re-send
        ``Delta C_p``, and a coordinator broadcasts only when its decision
        flips.
        """
        table = plan.table
        optimizer = self.group_optimizer
        if updated is None:
            groups = build_groups(plan.pairs())
        else:
            groups = [decision.group for decision in plan.group_decisions
                      if not updated.isdisjoint(decision.group.pairs)]
        for group in groups:
            rows = np.array([table.row_of[pair] for pair in group.pairs], dtype=np.int64)
            report_from = previous = None
            if updated is not None:
                report_from = {endpoint for pair in group.pairs if pair in updated
                               for endpoint in pair}
                previous = optimizer.previous_use_innet(group)
            decision = optimizer.decide_group(
                group, GroupPlacements.of(table, rows),
                representative_selectivities([table.assumed[row] for row in rows.tolist()]),
                self.window_size, ship=ship, report_from=report_from,
                previous_decision=previous,
            )
            if updated is None:
                plan.group_decisions.append(decision)
            optimizer.apply_decision(decision, table, rows)
        return plan

    def reoptimize_pairs(self, plan: JoinPlan, pairs: Sequence[Pair],
                         selectivities: Sequence[Selectivities]) -> None:
        """Re-place *pairs*' join nodes under fresh selectivity estimates
        (aligned with the pairs).

        Used by the adaptive executor (Section 6) when the learned estimates
        diverge from the assumed ones.  It sends nothing: the caller
        nominates the pairs whose join node actually moved.
        """
        table = plan.table
        rows = np.array([table.row_of[pair] for pair in pairs], dtype=np.int64)
        for row, estimate in zip(rows.tolist(), selectivities):
            table.assumed[row] = estimate
        table.place(rows, self.window_size)


def representative_selectivities(selectivities: Sequence[Selectivities]) -> Selectivities:
    """Average the per-pair selectivities of a group (they are usually equal),
    summed in the given order."""
    if not selectivities:
        raise KeyError("no selectivities known for any pair of the group")
    n = len(selectivities)
    return Selectivities(
        sigma_s=sum(s.sigma_s for s in selectivities) / n,
        sigma_t=sum(s.sigma_t for s in selectivities) / n,
        sigma_st=sum(s.sigma_st for s in selectivities) / n,
    )
