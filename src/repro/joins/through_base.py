"""The through-the-base strategy of Yang et al. 2007 ([16] in the paper).

Source tuples travel up the routing tree to the base station, which forwards
them back down to the target nodes holding matching join keys; the target
nodes perform the join against their locally buffered readings and return
answers to the base.  This keeps storage at the base low (Table 3: ``|S|``
values) but often costs more computation traffic than joining at the base.
The paper reports (Section 4.2) that its routing queues overflow under the
synthetic workloads; this simulator's forwarding queues are unbounded, so
that overflow is not modelled and only the traffic is compared.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.joins.base import (
    ExecutionContext,
    JoinStrategy,
    ProducerSet,
    RowIndex,
)
from repro.network.batch import RouteHops
from repro.network.message import MessageKind
from repro.routing.tree import RoutingTree, shared_tree


class _BlockRoutes(NamedTuple):
    """What a lossless block of cycles charges, per source producer (set
    position), source window entry and target producer."""

    up: RouteHops               # per source producer, its path to the base
    down: RouteHops             # per source entry, base -> its target
    results: RouteHops          # per source entry, its target -> base
    reaches: np.ndarray         # per source entry, whether tuples get there
    hops: np.ndarray            # per source entry, up + down + result hops
    local_results: RouteHops    # per target producer, its path to the base
    local_hops: np.ndarray      # per target producer, that path's hops


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
        #: :meth:`_block_routes` (``None``: to be rebuilt)
        self._routes: Optional[_BlockRoutes] = None

    # ------------------------------------------------------------------
    def initiate(self, ctx: ExecutionContext) -> None:
        self.tree = shared_tree(ctx.topology)
        source_alias, target_alias = ctx.query.aliases
        self._eligible = ctx.eligible()
        for alias, nodes in self._eligible.items():
            for node_id in nodes:
                self._paths_to_base[node_id] = self.tree.path_to_root(node_id)
                self._paths_from_base[node_id] = self.tree.path_from_root(node_id)
        # The base knows the static attributes (it disseminated the query), so
        # it forwards each source tuple only to statically matching targets.
        self._targets_of_source = {
            source: [] for source in self._eligible[source_alias]}
        for source, target in ctx.static_pairs(self._eligible[source_alias],
                                               self._eligible[target_alias]):
            self._targets_of_source[source].append(target)
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
        self._cycle(ctx, cycle)

    def execute_cycle_batch(self, ctx: ExecutionContext, cycles: range,
                            batcher) -> None:
        """A block of cycles over the cached up/down base routes.

        The reference chains verdicts (a lost up-path suppresses every
        downstream ship), so on lossy links the cycle streams through the
        captured-shipping wrapper (scalar draws in ship order).  On perfect
        links every ship delivers: the block is one band join, targets
        first, and each route is charged by how many messages crossed it.
        """
        if not batcher.lossless:
            with ctx.captured_shipping(batcher):
                self._cycle(ctx, cycles.start)
            return
        source_alias, target_alias = ctx.query.aliases
        routes = self._block_routes(ctx)
        blocks = {b.alias: b for b in ctx.sample_producers(cycles, self.producers)}
        local, local_entries = self._block_arrivals(
            blocks[target_alias], self._index[target_alias], None)
        forwarded, entries = self._block_arrivals(
            blocks[source_alias], self._index[source_alias], routes.reaches)
        s_counts, t_counts, totals = self.windows.join_block(
            cycles, forwarded, local, source_first=False)
        data_size, result_size = ctx.data_tuple_size(), ctx.result_tuple_size()
        sends = blocks[source_alias].sends.sum(axis=0)
        batcher.ship_routes(routes.up, sends, data_size, MessageKind.DATA)
        batcher.ship_routes(routes.down, sends[self._index[source_alias].owner],
                            data_size, MessageKind.DATA)
        # one result message per target reading, and per forwarded source
        # tuple at each target, that joined
        answering = self._index[target_alias].owner[local_entries]
        batcher.ship_routes(
            routes.local_results,
            np.bincount(answering[t_counts > 0], minlength=routes.local_hops.size),
            result_size, MessageKind.RESULT)
        reached = forwarded.inserted
        s_counts, entries = s_counts[reached], entries[reached]
        batcher.ship_routes(
            routes.results,
            np.bincount(entries[s_counts > 0], minlength=routes.reaches.size),
            result_size, MessageKind.RESULT)
        produced = int(t_counts.sum() + s_counts.sum())
        path_hops = int(t_counts @ routes.local_hops[answering]
                        + s_counts @ routes.hops[entries])
        self.results.record_block(produced, produced, path_hops)
        self._track_block_storage(totals)

    def _cycle(self, ctx: ExecutionContext, cycle: int) -> None:
        """Join target readings where they are, then route source readings
        through the base."""
        source_alias, target_alias = ctx.query.aliases
        data_size = ctx.data_tuple_size()
        result_size = ctx.result_tuple_size()
        paths_to_base = self._paths_to_base
        batches = {b.alias: b for b in ctx.sample_cycle(cycle, self.producers)}

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
            delivered = ctx.ship(result_path, result_size, MessageKind.RESULT)
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
            if up_path is None or not ctx.ship(up_path, data_size, MessageKind.DATA):
                continue
            row_targets = self._targets_of_source.get(source, [])
            for i, target in zip(range(bounds[k], bounds[k + 1]), row_targets):
                if not ctx.topology.nodes[target].alive:
                    continue
                down_path = self._paths_from_base.get(target)
                if down_path is None or not ctx.ship(down_path, data_size,
                                                     MessageKind.DATA):
                    continue
                reached[i] = True
                if counts[i]:
                    result_path = paths_to_base.get(target, [target])
                    delivered = ctx.ship(result_path, result_size, MessageKind.RESULT)
                    hops = (len(up_path) - 1) + (len(down_path) - 1) + (len(result_path) - 1)
                    self.results.record_many(counts[i], delivered, path_hops=hops)
        self.windows.insert(True, forwarded.rows, forwarded.values, cycle, mask=reached)
        self._track_storage()

    def _block_routes(self, ctx: ExecutionContext) -> "_BlockRoutes":
        """The routes a lossless block charges; built with the paths and
        dropped when a failure re-routes them."""
        if self._routes is None:
            source_alias, target_alias = ctx.query.aliases
            to_base = self._paths_to_base
            up, down, results, reaches, hops = [], [], [], [], []
            for source in self.producers[source_alias].key:
                up_path = to_base.get(source)
                up.append(() if up_path is None else (up_path,))
                for target in self._targets_of_source.get(source, []):
                    down_path = self._paths_from_base.get(target)
                    result_path = to_base.get(target, [target])
                    ok = (up_path is not None and down_path is not None
                          and ctx.topology.nodes[target].alive)
                    reaches.append(ok)
                    down.append((down_path,) if ok else ())
                    results.append((result_path,) if ok else ())
                    hops.append(len(up_path) + len(down_path) + len(result_path) - 3
                                if ok else 0)
            local = [to_base.get(t, [t]) for t in self.producers[target_alias].key]
            self._routes = _BlockRoutes(
                up=RouteHops(up), down=RouteHops(down), results=RouteHops(results),
                reaches=np.array(reaches, dtype=bool),
                hops=np.array(hops, dtype=np.int64),
                local_results=RouteHops([(path,) for path in local]),
                local_hops=np.array([len(path) - 1 for path in local], dtype=np.int64),
            )
        return self._routes

    def handle_failures(self, ctx: ExecutionContext, failed: List[int], cycle: int) -> None:
        # The tree may be the deployment's shared one: repair a copy.
        self.tree = self.tree.copy()
        for node_id in failed:
            self.tree.repair_after_failure(node_id, simulator=ctx.simulator)
        self._routes = None
        for node_id in list(self._paths_to_base):
            if not ctx.topology.nodes[node_id].alive:
                continue
            if any(f in self._paths_to_base[node_id] for f in failed) and self.tree.covers(node_id):
                self._paths_to_base[node_id] = self.tree.path_to_root(node_id)
                self._paths_from_base[node_id] = self.tree.path_from_root(node_id)

    def join_nodes_used(self) -> int:
        return len({t for targets in self._targets_of_source.values() for t in targets})
