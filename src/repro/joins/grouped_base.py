"""Grouped joins at the base station: the Naive and Base algorithms.

*Naive* pushes selection conditions down to the nodes, then ships every
satisfying tuple to the base station over the routing tree; the base performs
all join computation.  There is no per-query setup beyond the initial routing
tree, but traffic near the base and storage at the base are high.

*Base* adds an initiation round that pre-computes the static join clauses:
producers that cannot join with anyone are eliminated and never send data,
trading a costlier initiation for a cheaper computation phase (Section 2.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.joins.base import (
    ExecutionContext,
    JoinStrategy,
    Pair,
    ProducerBatch,
    ProducerSet,
    RowIndex,
)
from repro.network.batch import RouteHops
from repro.network.message import MessageKind
from repro.routing.tree import RoutingTree, shared_tree


class NaiveJoin(JoinStrategy):
    """Grouped join at the base with no pre-filtering."""

    name = "naive"

    def __init__(self) -> None:
        super().__init__()
        self.tree: RoutingTree = None  # type: ignore[assignment]
        self._eligible: Dict[str, List[int]] = {}
        self._pairs_of: Dict[Tuple[str, int], List[Pair]] = {}
        self._index: Dict[str, RowIndex] = {}
        self._paths_to_base: Dict[int, List[int]] = {}
        #: per relation, :meth:`_base_routes` (``None``: to be rebuilt)
        self._route_tables: Optional[Dict[str, Tuple[RouteHops, np.ndarray]]] = None

    # ------------------------------------------------------------------
    def initiate(self, ctx: ExecutionContext) -> None:
        self.tree = shared_tree(ctx.topology)
        self._eligible = ctx.eligible()
        self._paths_to_base = {
            node_id: self.tree.path_to_root(node_id)
            for alias in self._eligible
            for node_id in self._eligible[alias]
        }
        self._compute_pairs(ctx)
        self._open_pair_windows(ctx)

    def _open_pair_windows(self, ctx: ExecutionContext) -> None:
        """One window row per statically joining pair, and per relation the
        rows each participating producer feeds."""
        source_alias, _ = ctx.query.aliases
        self._open_windows(ctx, [
            pair
            for (alias, _), pairs in self._pairs_of.items()
            if alias == source_alias
            for pair in pairs
        ])
        for alias in ctx.query.aliases:
            self.producers[alias] = ProducerSet(self.participating_producers(alias))
            self._index[alias] = self._row_index(alias, {
                node_id: self._pairs_of.get((alias, node_id), ())
                for node_id in self.producers[alias].key
            })

    def _compute_pairs(self, ctx: ExecutionContext) -> None:
        """Pairs that can join statically; known for free at the base station."""
        source_alias, target_alias = ctx.query.aliases
        self._pairs_of = {}
        for pair in ctx.static_pairs(self._eligible[source_alias],
                                     self._eligible[target_alias]):
            source, target = pair
            self._pairs_of.setdefault((source_alias, source), []).append(pair)
            self._pairs_of.setdefault((target_alias, target), []).append(pair)

    def participating_producers(self, alias: str) -> List[int]:
        """Producers that send data during the computation phase."""
        return list(self._eligible.get(alias, []))

    # ------------------------------------------------------------------
    def execute_cycle(self, ctx: ExecutionContext, cycle: int) -> None:
        source_alias, _ = ctx.query.aliases
        data_size = ctx.data_tuple_size()
        paths_to_base = self._paths_to_base
        for batch in ctx.sample_cycle(cycle, self.producers):
            delivered = [
                (path := paths_to_base.get(node_id)) is not None
                and ctx.ship(path, data_size, MessageKind.DATA)
                for node_id in batch.node_ids.tolist()
            ]
            self._join_at_base(batch, delivered, batch.alias == source_alias, cycle)
        self._track_storage()

    def execute_cycle_batch(self, ctx: ExecutionContext, cycles: range,
                            batcher) -> None:
        """Every producer ships the same-size tuple to the base.

        On perfect links the block's fan-in is each producer's path to the
        base times how often it sent, and the join at the base is one band
        join.  On lossy links (one cycle) a relation collapses to a single
        batched link draw: one ``ship_many`` per relation.
        """
        if batcher.lossless:
            self._block(ctx, cycles, batcher)
            return
        cycle = cycles.start
        source_alias, _ = ctx.query.aliases
        data_size = ctx.data_tuple_size()
        paths_to_base = self._paths_to_base
        for batch in ctx.sample_cycle(cycle, self.producers):
            paths = [paths_to_base.get(n) for n in batch.node_ids.tolist()]
            delivered = np.array([path is not None for path in paths], dtype=bool)
            routed = [path for path in paths if path is not None]
            if routed:
                delivered[delivered] = batcher.ship_many(
                    routed, data_size, MessageKind.DATA
                )
            self._join_at_base(batch, delivered, batch.alias == source_alias, cycle)
        self._track_storage()

    def _block(self, ctx: ExecutionContext, cycles: range, batcher) -> None:
        """A lossless block: a tuple reaches the base iff its producer has
        a path there; results are produced at the base, with no hops."""
        source, target = ctx.sample_producers(cycles, self.producers)
        tables = self._base_routes()
        sides = []
        for block in (source, target):
            routes, routed = tables[block.alias]
            index = self._index[block.alias]
            sides.append(self._block_arrivals(block, index, routed[index.owner]))
            batcher.ship_routes(routes, block.sends.sum(axis=0),
                                ctx.data_tuple_size(), MessageKind.DATA)
        (s_arrivals, _), (t_arrivals, _) = sides
        s_counts, t_counts, totals = self.windows.join_block(
            cycles, s_arrivals, t_arrivals, source_first=True)
        produced = int(s_counts[s_arrivals.inserted].sum()
                       + t_counts[t_arrivals.inserted].sum())
        self.results.record_block(produced, produced, 0)
        self._track_block_storage(totals)

    def _base_routes(self) -> Dict[str, Tuple[RouteHops, np.ndarray]]:
        """Per relation, its producers' paths to the base as
        :class:`RouteHops` (route = set position) and which have one; built
        with the paths and dropped when a failure re-routes them."""
        if self._route_tables is None:
            self._route_tables = {}
            for alias, members in self.producers.items():
                paths = [self._paths_to_base.get(n) for n in members.key]
                self._route_tables[alias] = (
                    RouteHops([() if path is None else (path,) for path in paths]),
                    np.array([path is not None for path in paths], dtype=bool),
                )
        return self._route_tables

    def _join_at_base(self, batch: ProducerBatch, delivered,
                      from_source: bool, cycle: int) -> None:
        """Probe and buffer the tuples that reached the base station;
        *delivered* holds one verdict per sender of the batch."""
        arrivals = self._arrivals(batch, self._index[batch.alias], from_source)
        got_through = np.zeros(batch.sends.size, dtype=bool)
        got_through[batch.senders] = delivered
        reached = got_through[arrivals.owner]
        self.windows.insert(from_source, arrivals.rows, arrivals.values, cycle,
                            mask=reached)
        # Results are produced where they are needed: no extra hops.
        self.results.record_many(int(arrivals.counts[reached].sum()), delivered=True)

    def handle_failures(self, ctx: ExecutionContext, failed: List[int], cycle: int) -> None:
        # The tree may be the deployment's shared one: repair a copy.
        self.tree = self.tree.copy()
        for node_id in failed:
            self.tree.repair_after_failure(node_id, simulator=ctx.simulator)
        # Recompute cached paths for producers whose old path died.
        self._route_tables = None
        for node_id in list(self._paths_to_base):
            if any(f in self._paths_to_base[node_id] for f in failed):
                if ctx.topology.nodes[node_id].alive and self.tree.covers(node_id):
                    self._paths_to_base[node_id] = self.tree.path_to_root(node_id)

    def join_nodes_used(self) -> int:
        return 1


class BaseJoin(NaiveJoin):
    """Naive plus an initiation round that eliminates non-joining producers."""

    name = "base"

    def __init__(self) -> None:
        super().__init__()
        self._participating: Dict[str, List[int]] = {}

    def initiate(self, ctx: ExecutionContext) -> None:
        super().initiate(ctx)
        # Initiation round trip: each eligible producer reports its static join
        # attributes to the base and receives back whether it participates.
        report_size = ctx.sizes.control(num_fields=3)
        for alias, nodes in self._eligible.items():
            for node_id in nodes:
                path = self._paths_to_base[node_id]
                ctx.ship(path, report_size, MessageKind.CONTROL)
                ctx.ship(list(reversed(path)), report_size, MessageKind.CONTROL)

    def _open_pair_windows(self, ctx: ExecutionContext) -> None:
        # Producers with no statically joining partner are eliminated.
        self._participating = {
            alias: [
                node_id for node_id in nodes
                if self._pairs_of.get((alias, node_id))
            ]
            for alias, nodes in self._eligible.items()
        }
        super()._open_pair_windows(ctx)

    def participating_producers(self, alias: str) -> List[int]:
        return list(self._participating.get(alias, []))
