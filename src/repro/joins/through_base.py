"""The through-the-base strategy of Yang et al. 2007 ([16] in the paper).

Source tuples travel up the routing tree to the base station, which forwards
them back down to the target nodes holding matching join keys; the target
nodes perform the join against their locally buffered readings and return
answers to the base.  This keeps storage at the base low (Table 3: ``|S|``
values) but often costs more computation traffic than joining at the base,
and its routing queues overflow under the paper's synthetic workloads when
per-node queues are bounded (Section 4.2).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.joins.base import (
    ExecutionContext,
    JoinStrategy,
    ProducerSet,
    RowIndex,
)
from repro.network.message import MessageKind
from repro.routing.tree import RoutingTree


class ThroughBaseJoin(JoinStrategy):
    """Yang+07: S data through the root, joined at the T nodes."""

    name = "yang07"

    def __init__(self) -> None:
        super().__init__()
        self.tree: RoutingTree = None  # type: ignore[assignment]
        self._eligible: Dict[str, List[int]] = {}
        #: source node -> target nodes its tuples are forwarded to
        self._targets_of_source: Dict[int, List[int]] = {}
        self._index: Dict[str, RowIndex] = {}
        self._paths_to_base: Dict[int, List[int]] = {}
        self._paths_from_base: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    def initiate(self, ctx: ExecutionContext) -> None:
        self.tree = RoutingTree(ctx.topology)
        source_alias, target_alias = ctx.query.aliases
        self._eligible = {
            source_alias: ctx.eligible_producers(source_alias),
            target_alias: ctx.eligible_producers(target_alias),
        }
        for alias, nodes in self._eligible.items():
            for node_id in nodes:
                self._paths_to_base[node_id] = self.tree.path_to_root(node_id)
                self._paths_from_base[node_id] = self.tree.path_from_root(node_id)
        # The base knows the static attributes (it disseminated the query), so
        # it forwards each source tuple only to statically matching targets.
        for source in self._eligible[source_alias]:
            source_attrs = ctx.topology.nodes[source].static_attributes
            targets = []
            for target in self._eligible[target_alias]:
                if target == source:
                    continue
                target_attrs = ctx.topology.nodes[target].static_attributes
                if ctx.analysis.pair_joins_statically(source_attrs, target_attrs):
                    targets.append(target)
            self._targets_of_source[source] = targets
        # One window row per (source, target) the base forwards between; a
        # target meets its sources in the order the base lists them.
        pairs_of_source = {
            source: [(source, target) for target in targets]
            for source, targets in self._targets_of_source.items()
        }
        pairs_of_target: Dict[int, list] = {}
        for pairs in pairs_of_source.values():
            for pair in pairs:
                pairs_of_target.setdefault(pair[1], []).append(pair)
        self._open_windows(
            ctx, [pair for pairs in pairs_of_source.values() for pair in pairs]
        )
        for alias, pairs_of in ((source_alias, pairs_of_source),
                                (target_alias, pairs_of_target)):
            self.producers[alias] = ProducerSet(self._eligible[alias])
            self._index[alias] = self._row_index(alias, pairs_of)

    # ------------------------------------------------------------------
    def execute_cycle(self, ctx: ExecutionContext, cycle: int) -> None:
        self._cycle(ctx, cycle, batcher=None)

    def execute_cycle_batch(self, ctx: ExecutionContext, cycle: int,
                            batcher) -> None:
        """One cycle with the up/down base routes shipped in batched draws.

        The reference chains verdicts (a lost up-path suppresses every
        downstream ship), so on lossy links the cycle streams through the
        captured-shipping wrapper (scalar draws in ship order).  On perfect
        links every ship delivers and the cycle vectorizes over the cached
        ``_paths_to_base`` / ``_paths_from_base`` routes: one ``ship_many``
        per message kind.
        """
        if not batcher.lossless:
            with ctx.captured_shipping(batcher):
                self._cycle(ctx, cycle, batcher=None)
            return
        self._cycle(ctx, cycle, batcher)

    def _cycle(self, ctx: ExecutionContext, cycle: int, batcher) -> None:
        """Join target readings where they are, then route source readings
        through the base.  With a (lossless) *batcher* every ship delivers,
        so the paths are collected and shipped once per message kind."""
        source_alias, target_alias = ctx.query.aliases
        data_size = ctx.data_tuple_size()
        result_size = ctx.result_tuple_size()
        data_paths: List[List[int]] = []
        result_paths: List[List[int]] = []
        if batcher is None:
            def ship_data(path): return ctx.ship(path, data_size, MessageKind.DATA)
            def ship_result(path): return ctx.ship(path, result_size, MessageKind.RESULT)
        else:
            def ship_data(path): return data_paths.append(path) or True
            def ship_result(path): return result_paths.append(path) or True
        paths_to_base = self._paths_to_base
        batches = {b.alias: b for b in ctx.sample_producers(cycle, self.producers)}

        # Target readings stay local: each is buffered at its own node after
        # joining against the source tuples previously forwarded down to it,
        # so the target relation goes first and nothing gates its inserts.
        local = self._arrivals(batches[target_alias], self._index[target_alias],
                               from_source=False)
        self.windows.insert(False, local.rows, local.values, cycle)
        target_nodes = self.producers[target_alias].key
        for i in np.flatnonzero(local.counts).tolist():
            target = target_nodes[local.owner[i]]
            result_path = paths_to_base.get(target, [target])
            delivered = ship_result(result_path)
            self.results.record_many(int(local.counts[i]), delivered,
                                     path_hops=len(result_path) - 1)

        # Source readings go up to the base, then down to each matching target.
        sources = batches[source_alias]
        forwarded = self._arrivals(sources, self._index[source_alias],
                                   from_source=True)
        counts = forwarded.counts.tolist()
        bounds = self._index[source_alias].bounds(sources.senders)
        reached = np.zeros(forwarded.rows.size, dtype=bool)
        for k, source in enumerate(sources.node_ids.tolist()):
            up_path = paths_to_base.get(source)
            if up_path is None or not ship_data(up_path):
                continue
            row_targets = self._targets_of_source.get(source, [])
            for i, target in zip(range(bounds[k], bounds[k + 1]), row_targets):
                if not ctx.topology.nodes[target].alive:
                    continue
                down_path = self._paths_from_base.get(target)
                if down_path is None or not ship_data(down_path):
                    continue
                reached[i] = True
                if counts[i]:
                    result_path = paths_to_base.get(target, [target])
                    delivered = ship_result(result_path)
                    hops = (len(up_path) - 1) + (len(down_path) - 1) + (len(result_path) - 1)
                    self.results.record_many(counts[i], delivered, path_hops=hops)
        self.windows.insert(True, forwarded.rows, forwarded.values, cycle, mask=reached)
        if batcher is not None:
            batcher.ship_many(data_paths, data_size, MessageKind.DATA)
            batcher.ship_many(result_paths, result_size, MessageKind.RESULT)
        self._track_storage()

    def handle_failures(self, ctx: ExecutionContext, failed: List[int], cycle: int) -> None:
        for node_id in failed:
            self.tree.repair_after_failure(node_id, simulator=ctx.simulator)
        for node_id in list(self._paths_to_base):
            if not ctx.topology.nodes[node_id].alive:
                continue
            if any(f in self._paths_to_base[node_id] for f in failed) and self.tree.covers(node_id):
                self._paths_to_base[node_id] = self.tree.path_to_root(node_id)
                self._paths_from_base[node_id] = self.tree.path_from_root(node_id)

    def join_nodes_used(self) -> int:
        return len({t for targets in self._targets_of_source.values() for t in targets})
