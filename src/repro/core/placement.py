"""Cost-based join-node placement for one (s, t) pair (Sections 3.1-3.2).

During initiation the target node ``t`` learns, for every candidate path
``P`` from ``s`` to ``t``, each path node's hop distance to the base station.
It evaluates the pairwise cost expression at every node ``j`` on ``P``, also
considers performing the pairwise join at the base station, chooses the
cheapest option and *nominates* the chosen join node, which in turn notifies
``s`` (Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.cost_model import (
    Selectivities,
    innet_pair_cost,
    pair_at_base_cost,
)
from repro.network.message import MessageKind, MessageSizes, Ship
from repro.routing.multitree import PairPath


@dataclass
class PlacementDecision:
    """The outcome of pairwise join-node placement for one (s, t) pair."""

    source: int
    target: int
    join_node: int
    at_base: bool
    expected_cost: float
    base_cost: float
    source_to_join: List[int] = field(default_factory=list)
    target_to_join: List[int] = field(default_factory=list)
    join_to_base: List[int] = field(default_factory=list)
    candidate_path: Optional[PairPath] = None

    @property
    def d_sj(self) -> int:
        return max(0, len(self.source_to_join) - 1)

    @property
    def d_tj(self) -> int:
        return max(0, len(self.target_to_join) - 1)

    @property
    def d_jr(self) -> int:
        return max(0, len(self.join_to_base) - 1)


def place_join_node(
    pair_path: PairPath,
    selectivities: Selectivities,
    window_size: int,
    base_path_of,
    base_id: int,
) -> PlacementDecision:
    """Choose the cheapest join node for one pair.

    Parameters
    ----------
    pair_path:
        A discovered path from ``s`` to ``t`` annotated with every path
        node's hop distance to the base station.
    selectivities:
        The (estimated) selectivities used by the cost model.
    window_size:
        The query's window size ``w``.
    base_path_of:
        Callable mapping a node id to its path to the base station (used to
        materialize the result-forwarding path of the chosen join node).
    base_id:
        The base station's node id.
    """
    path = pair_path.path
    hops_to_base = pair_path.hops_to_base
    if not hops_to_base or len(hops_to_base) != len(path):
        raise ValueError("pair path must be annotated with hops to the base station")

    length = len(path)
    best_index = 0
    best_cost = float("inf")
    for index, d_jr in enumerate(hops_to_base):
        cost = innet_pair_cost(
            selectivities,
            window_size,
            d_sj=index,
            d_tj=length - 1 - index,
            d_jr=d_jr,
        )
        if cost < best_cost:
            best_cost = cost
            best_index = index

    base_cost = pair_at_base_cost(
        selectivities, d_sr=hops_to_base[0], d_tr=hops_to_base[-1]
    )

    if base_cost < best_cost:
        source_to_base = list(base_path_of(pair_path.source))
        target_to_base = list(base_path_of(pair_path.target))
        return PlacementDecision(
            source=pair_path.source,
            target=pair_path.target,
            join_node=base_id,
            at_base=True,
            expected_cost=base_cost,
            base_cost=base_cost,
            source_to_join=source_to_base,
            target_to_join=target_to_base,
            join_to_base=[base_id],
            candidate_path=pair_path,
        )

    join_node = path[best_index]
    return PlacementDecision(
        source=pair_path.source,
        target=pair_path.target,
        join_node=join_node,
        at_base=(join_node == base_id),
        expected_cost=best_cost,
        base_cost=base_cost,
        source_to_join=list(path[: best_index + 1]),
        target_to_join=list(reversed(path[best_index:])),
        join_to_base=list(base_path_of(join_node)),
        candidate_path=pair_path,
    )


def best_placement(
    candidate_paths: Sequence[PairPath],
    selectivities: Selectivities,
    window_size: int,
    base_path_of,
    base_id: int,
) -> PlacementDecision:
    """Place the join node considering every candidate path for a pair."""
    if not candidate_paths:
        raise ValueError("need at least one candidate path")
    decisions = [
        place_join_node(path, selectivities, window_size, base_path_of, base_id)
        for path in candidate_paths
    ]
    return min(decisions, key=lambda d: d.expected_cost)


def nomination_traffic(
    ship: Ship,
    decision: PlacementDecision,
    sizes: Optional[MessageSizes] = None,
) -> None:
    """Ship the nomination protocol of Section 3.2 through *ship*.

    ``t`` sends a nomination message (sourceID, targetID, sequence) to the
    chosen join node ``j``, and ``j`` notifies ``s`` that it will perform the
    pairwise join.
    """
    sizes = sizes or MessageSizes()
    nomination_size = sizes.control(num_fields=3)
    if decision.target_to_join and len(decision.target_to_join) > 1:
        ship(decision.target_to_join, nomination_size, MessageKind.NOMINATE)
    if decision.source_to_join and len(decision.source_to_join) > 1:
        ship(list(reversed(decision.source_to_join)), nomination_size,
             MessageKind.NOMINATE)
