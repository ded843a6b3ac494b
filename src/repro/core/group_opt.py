"""Multi-join-pair optimization: GROUPOPT (Section 5.2, Algorithm 1).

For join predicates that are commutative and transitive (e.g. equijoins),
producers that join with each other form complete bipartite subgraphs --
*groups*.  Each group independently decides whether to compute a series of
pairwise in-network joins or a single grouped join at the base station:

1. every producer ``p`` computes its cost difference ``Delta C_p`` between
   the fully in-network computation and joining at the base,
2. sends it to the group coordinator ``Gc`` (the member with the smallest id),
3. ``Gc`` sums the differences and broadcasts the group decision.

Algorithm 1's (coordinator id, sequence number) rule, which reconciles two
decisions for one group, is not modelled: every decided group is a fresh
one.  :class:`GroupOptimizer` keeps one decision state, each coordinator's
last decision, which suppresses a re-decision's broadcast when the choice
did not flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.cost_model import Selectivities
from repro.core.placement import PairTable
from repro.network.message import MessageKind, MessageSizes, Ship

Pair = Tuple[int, int]


@dataclass
class Group:
    """One complete-bipartite group of joining producers."""

    group_id: int
    source_members: Set[int] = field(default_factory=set)
    target_members: Set[int] = field(default_factory=set)
    pairs: List[Pair] = field(default_factory=list)

    @property
    def members(self) -> Set[int]:
        return self.source_members | self.target_members

    @property
    def coordinator(self) -> int:
        """The group coordinator: the member with the smallest node id."""
        return min(self.members)


@dataclass
class GroupDecision:
    """The coordinator's decision for one group."""

    group: Group
    #: per producer its ``Delta C_p``
    per_producer_delta: Dict[int, float]

    @property
    def total_delta(self) -> float:
        return sum(self.per_producer_delta.values())

    @property
    def use_innet(self) -> bool:
        """Pairwise in-network joins when they are cheaper in sum than
        joining the group at the base."""
        return self.total_delta < 0.0


def build_groups(pairs: Sequence[Pair]) -> List[Group]:
    """Partition joining pairs into groups (connected bipartite components)."""
    parent: Dict[Tuple[str, int], Tuple[str, int]] = {}

    def find(item):
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(a, b):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_b] = root_a

    for source, target in pairs:
        union(("s", source), ("t", target))

    components: Dict[Tuple[str, int], Group] = {}
    groups: List[Group] = []
    for source, target in pairs:
        root = find(("s", source))
        group = components.get(root)
        if group is None:
            group = Group(group_id=len(groups))
            components[root] = group
            groups.append(group)
        group.source_members.add(source)
        group.target_members.add(target)
        group.pairs.append((source, target))
    return groups


class GroupOptimizer:
    """Runs GROUPOPT over the pairwise placements of a plan's pair table."""

    def __init__(
        self,
        hops_to_base: Callable[[int], int],
        route_between: Callable[[int, int], List[int]],
        sizes: Optional[MessageSizes] = None,
    ) -> None:
        self.hops_to_base = hops_to_base
        self.route_between = route_between
        self.sizes = sizes or MessageSizes()
        #: the decision state: each coordinator's last decision
        self._last_use_innet: Dict[int, bool] = {}
        # -- incremental multi-query state (service mode) ------------------
        self._query_pairs: Dict[Hashable, Tuple[Pair, ...]] = {}
        self._pair_refs: Dict[Pair, int] = {}
        self._live_groups: Dict[int, Group] = {}
        self._next_group_id = 0

    # ------------------------------------------------------------------
    # incremental grouping over a churning query population
    # ------------------------------------------------------------------
    def groups(self) -> List[Group]:
        """All live groups across registered queries, by ascending group id."""
        return [self._live_groups[gid] for gid in sorted(self._live_groups)]

    def registered_queries(self) -> List[Hashable]:
        return list(self._query_pairs)

    def previous_use_innet(self, group: Group) -> Optional[bool]:
        """The last decision of this group's coordinator, if any.

        Used as ``previous_decision`` when re-deciding, so the coordinator's
        broadcast is suppressed when its choice did not flip.
        """
        return self._last_use_innet.get(group.coordinator)

    def adopt(self, group: Group, use_innet: bool) -> None:
        """Take *use_innet*, decided and broadcast elsewhere, as the last
        decision of *group*'s coordinator."""
        self._last_use_innet[group.coordinator] = use_innet

    def add_query(self, query_id: Hashable, pairs: Sequence[Pair]) -> List[Group]:
        """Register a query's joining pairs; re-derive only affected groups.

        Existing groups that share a producer endpoint with the new pairs
        are merged with them through :func:`build_groups` over just that
        delta; every other group is untouched.
        Returns the re-derived groups, which need a fresh
        :meth:`decide_group` pass.
        """
        if query_id in self._query_pairs:
            raise ValueError(f"query {query_id!r} is already registered")
        pair_list = [(int(s), int(t)) for s, t in pairs]
        self._query_pairs[query_id] = tuple(pair_list)
        fresh: List[Pair] = []
        for pair in pair_list:
            count = self._pair_refs.get(pair, 0)
            self._pair_refs[pair] = count + 1
            if count == 0:
                fresh.append(pair)
        if not fresh:
            return []
        sources = {s for s, _ in fresh}
        targets = {t for _, t in fresh}
        affected = [
            gid for gid in sorted(self._live_groups)
            if self._live_groups[gid].source_members & sources
            or self._live_groups[gid].target_members & targets
        ]
        delta: List[Pair] = []
        for gid in affected:
            delta.extend(self._live_groups[gid].pairs)
        delta.extend(fresh)
        return self._rebuild(affected, delta)

    def remove_query(self, query_id: Hashable) -> List[Group]:
        """Unregister a query; re-derive only the groups that lose pairs.

        A group shrinks (and possibly splits) only when a pair's reference
        count drops to zero -- pairs shared with other live queries keep the
        group intact.  Returns the re-derived groups needing a fresh
        decision (dissolved groups simply disappear).
        """
        pair_list = self._query_pairs.pop(query_id, None)
        if pair_list is None:
            raise KeyError(f"query {query_id!r} is not registered")
        dropped: Set[Pair] = set()
        for pair in pair_list:
            count = self._pair_refs.get(pair, 0) - 1
            if count <= 0:
                self._pair_refs.pop(pair, None)
                dropped.add(pair)
            else:
                self._pair_refs[pair] = count
        if not dropped:
            return []
        affected = [
            gid for gid in sorted(self._live_groups)
            if dropped.intersection(self._live_groups[gid].pairs)
        ]
        delta: List[Pair] = []
        for gid in affected:
            delta.extend(
                p for p in self._live_groups[gid].pairs if p not in dropped
            )
        return self._rebuild(affected, delta)

    def _rebuild(self, affected: List[int], delta: List[Pair]) -> List[Group]:
        """Replace *affected* groups with ``build_groups`` over *delta*.

        Structurally unchanged groups (same pair set) keep their identity;
        genuinely new or reshaped groups get fresh ids and are returned for
        re-decision.
        """
        old_by_pairs: Dict[frozenset, int] = {
            frozenset(self._live_groups[gid].pairs): gid for gid in affected
        }
        changed: List[Group] = []
        surviving: Set[int] = set()
        for rebuilt in build_groups(delta):
            old_gid = old_by_pairs.get(frozenset(rebuilt.pairs))
            if old_gid is not None and old_gid not in surviving:
                surviving.add(old_gid)  # unchanged: keep the group
                continue
            rebuilt.group_id = self._next_group_id
            self._next_group_id += 1
            self._live_groups[rebuilt.group_id] = rebuilt
            changed.append(rebuilt)
        for gid in affected:
            if gid not in surviving:
                self._live_groups.pop(gid, None)
        return changed

    # ------------------------------------------------------------------
    def _side_deltas(self, members: List[int], producers: np.ndarray,
                     distances: np.ndarray, placements: "GroupPlacements",
                     sigma_p: float, sigma_st: float, window_size: int) -> List[float]:
        """``Delta C_p`` of every producer in *members* on one side of a
        group: *producers* and *distances* say per placed pair which member
        it belongs to and how far that member is from the pair's join node.

        A producer reaches each of its join nodes once; if several of its
        pairs share a join node, data is sent once and joined ``N_pj``
        times.  One pass over the group's pairs groups them by (producer,
        join node); each producer then sums its join nodes in the order its
        pairs first reach them, one after the other:
        ``Delta C_p = sigma_p * sum_j (D_pj + w * sigma_st * N_pj * D_jr) -
        sigma_p * D_pr``.
        """
        reached: Dict[Tuple[int, int], List[int]] = {}
        for producer, join_node, d_pj, d_jr in zip(
                producers.tolist(), placements.join.tolist(), distances.tolist(),
                placements.d_jr.tolist()):
            entry = reached.get((producer, join_node))
            if entry is None:
                reached[(producer, join_node)] = [d_pj, 1, d_jr]
            else:
                entry[1] += 1
        in_network = dict.fromkeys(members, 0.0)
        scale = window_size * sigma_st
        for (producer, _), (d_pj, n_pj, d_jr) in reached.items():
            in_network[producer] += float(d_pj) + scale * n_pj * float(d_jr)
        hops_to_base = self.hops_to_base
        return [sigma_p * in_network[p] - sigma_p * float(hops_to_base(p))
                for p in members]

    def decide_group(
        self,
        group: Group,
        placements: "GroupPlacements",
        selectivities: Selectivities,
        window_size: int,
        ship: Optional[Ship] = None,
        report_from: Optional[Set[int]] = None,
        previous_decision: Optional[bool] = None,
    ) -> GroupDecision:
        """Run Algorithm 1 for one group; with *ship*, its cost reports and
        decision messages are sent through it.

        *placements* holds the current placement of the group's placed
        pairs, in group-pair order.  ``report_from`` limits the producers
        that send an (updated) cost difference to the coordinator --
        Algorithm 1 only sends ``Delta C_p`` when it has changed.
        ``previous_decision`` suppresses the decision broadcast when the
        coordinator's choice did not change.  The decision becomes the
        coordinator's last one.
        """
        coordinator = group.coordinator
        sigma_st = selectivities.sigma_st
        sources = sorted(group.source_members)
        targets = sorted(group.target_members)
        per_producer: Dict[int, float] = dict(zip(sources, self._side_deltas(
            sources, placements.sources, placements.d_sj, placements,
            selectivities.sigma_s, sigma_st, window_size)))
        for producer, delta in zip(targets, self._side_deltas(
                targets, placements.targets, placements.d_tj, placements,
                selectivities.sigma_t, sigma_st, window_size)):
            # A node may appear on both sides of an m:n self-join; accumulate.
            per_producer[producer] = per_producer.get(producer, 0.0) + delta

        if ship is not None:
            report_size = self.sizes.control(num_fields=2)
            reporters = per_producer if report_from is None else (
                set(per_producer) & set(report_from)
            )
            for producer in sorted(reporters):
                if producer == coordinator:
                    continue
                ship(self.route_between(producer, coordinator), report_size,
                     MessageKind.COST_REPORT)

        decision = GroupDecision(group=group, per_producer_delta=per_producer)
        use_innet = self._last_use_innet[coordinator] = decision.use_innet
        if ship is not None and (
            previous_decision is None or previous_decision != use_innet
        ):
            decision_size = self.sizes.control(num_fields=3)
            for producer in per_producer:
                if producer == coordinator:
                    continue
                ship(self.route_between(coordinator, producer), decision_size,
                     MessageKind.DECISION)
        return decision

    def apply_decision(self, decision: GroupDecision, table: "PairTable",
                       rows: np.ndarray, base_cost=None) -> None:
        """Rewrite a group's *rows* of *table* to join at the base station if
        so decided (*base_cost*: the at-base costs to keep, when the
        decision's placements came from another table)."""
        if not decision.use_innet:
            table.rewrite_to_base(rows, base_cost)


class GroupPlacements(NamedTuple):
    """The current placement of a group's placed pairs, aligned per pair in
    group-pair order."""

    sources: np.ndarray
    targets: np.ndarray
    join: np.ndarray
    d_sj: np.ndarray
    d_tj: np.ndarray
    d_jr: np.ndarray

    @classmethod
    def of(cls, table: "PairTable", rows: np.ndarray) -> "GroupPlacements":
        rows = np.asarray(rows, dtype=np.int64)
        return cls(table.routes.sources[rows], table.routes.targets[rows],
                   table.join[rows], *table.distances(rows))

