"""Grouped join at geographic-hash home nodes (GHT / DHT strategy).

All producers sharing a join key route their tuples to the key's *home node*
(the node whose location -- or hashed id, for the DHT variant on mesh
networks -- is closest to the key's hash).  The home node performs the
grouped join for that key and forwards results to the base station.  Because
the home node's placement ignores locality it may be arbitrarily far from the
producers, which is why the strategy routes over long, unpredictable paths
(Section 2.2).
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.joins.base import (
    ExecutionContext,
    JoinStrategy,
    Pair,
    ProducerSet,
    RowIndex,
)
from repro.network.batch import RouteHops
from repro.network.message import MessageKind
from repro.query.analysis import EqualityRouting, RegionRouting
from repro.routing.dht import DHTSubstrate
from repro.routing.ght import GHTSubstrate
from repro.routing.tree import RoutingTree, shared_tree

Key = Tuple


class _StopRoutes(NamedTuple):
    """One relation's stops -- a producer's tuple at one of its keys' home
    nodes -- for charging a block of cycles."""

    data: RouteHops         # per stop, producer -> home
    results: RouteHops      # per stop, home -> base
    owner: np.ndarray       # per stop, its producer's set position
    of_entry: np.ndarray    # per RowIndex entry, its stop
    hops: np.ndarray        # per stop, the hops each of its results travels


class GHTJoin(JoinStrategy):
    """Grouped join keyed by the query's primary static join predicate."""

    name = "ght"

    def __init__(self, use_dht: bool = False) -> None:
        super().__init__()
        self.use_dht = use_dht
        if use_dht:
            self.name = "dht"
        self.hash_substrate = None  # GHTSubstrate | DHTSubstrate
        self.tree: RoutingTree = None  # type: ignore[assignment]
        self._eligible: Dict[str, List[int]] = {}
        #: producer (alias, node) -> keys it must send its tuples to
        self._keys_of: Dict[Tuple[str, int], List[Key]] = {}
        #: the same, deduplicated once at initiation (hot-loop view)
        self._unique_keys_of: Dict[Tuple[str, int], Tuple[Key, ...]] = {}
        #: (key, alias, node) -> pairs probed when this producer's tuple arrives
        self._pairs_at_key: Dict[Tuple[Key, str, int], List[Pair]] = {}
        self._index: Dict[str, RowIndex] = {}
        #: alias -> per producer (set position), its (key, row count) stops:
        #: the producer's window rows are laid out key after key
        self._stops: Dict[str, List[List[Tuple[Key, int]]]] = {}
        #: key -> home (join) node
        self._home_of: Dict[Key, int] = {}
        #: (producer, home) -> cached route
        self._route_cache: Dict[Tuple[int, int], List[int]] = {}
        #: home -> cached route to base
        self._result_path: Dict[int, List[int]] = {}
        #: per relation, :meth:`_stop_routes` (``None``: to be rebuilt)
        self._stop_tables: Optional[Dict[str, _StopRoutes]] = None

    # ------------------------------------------------------------------
    def initiate(self, ctx: ExecutionContext) -> None:
        self.tree = shared_tree(ctx.topology)
        self.hash_substrate = (
            DHTSubstrate(ctx.topology) if self.use_dht else GHTSubstrate(ctx.topology)
        )
        source_alias, _ = ctx.query.aliases
        self._eligible = ctx.eligible()
        routing = ctx.analysis.routing_predicate
        if routing is None:
            raise ValueError(
                "the GHT strategy needs a static join key; the query has no "
                "routable static join predicate"
            )
        self._assign_keys(ctx, routing)
        self._unique_keys_of = {
            producer: tuple(dict.fromkeys(keys))
            for producer, keys in self._keys_of.items()
        }
        self._resolve_home_nodes(ctx)
        self._charge_initiation(ctx)
        self._open_windows(ctx, [
            pair
            for (_, alias, _), pairs in self._pairs_at_key.items()
            if alias == source_alias
            for pair in pairs
        ])
        for alias in ctx.query.aliases:
            self.producers[alias] = ProducerSet(self._eligible[alias])
            self._stops[alias] = [
                [
                    (key, len(self._pairs_at_key.get((key, alias, node_id), ())))
                    for key in self._unique_keys_of.get((alias, node_id), ())
                ]
                for node_id in self.producers[alias].key
            ]
            self._index[alias] = self._row_index(alias, {
                node_id: [
                    pair
                    for key in self._unique_keys_of.get((alias, node_id), ())
                    for pair in self._pairs_at_key.get((key, alias, node_id), ())
                ]
                for node_id in self.producers[alias].key
            })

    # -- key assignment -------------------------------------------------------
    def _assign_keys(self, ctx: ExecutionContext, routing) -> None:
        source_alias, target_alias = ctx.query.aliases
        if isinstance(routing, EqualityRouting):
            self._assign_equality_keys(ctx, routing)
        elif isinstance(routing, RegionRouting):
            self._assign_region_keys(ctx, routing)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unsupported routing predicate {type(routing)!r}")

    def _assign_equality_keys(self, ctx: ExecutionContext, routing: EqualityRouting) -> None:
        source_alias, target_alias = ctx.query.aliases
        for source in self._eligible[source_alias]:
            s_attrs = ctx.topology.nodes[source].static_attributes
            key: Key = ("val", routing.required_value(s_attrs)) \
                if routing.search_alias == source_alias else \
                ("val", s_attrs.get(routing.indexed_attribute))
            self._keys_of.setdefault((source_alias, source), []).append(key)
        for target in self._eligible[target_alias]:
            t_attrs = ctx.topology.nodes[target].static_attributes
            key = ("val", t_attrs.get(routing.indexed_attribute)) \
                if routing.indexed_alias == target_alias else \
                ("val", routing.required_value(t_attrs))
            self._keys_of.setdefault((target_alias, target), []).append(key)
        self._register_pairs(ctx)

    def _assign_region_keys(self, ctx: ExecutionContext, routing: RegionRouting) -> None:
        """Spatial grouping: cells of side ``radius``; a searcher sends to every
        cell its radius disc overlaps, an indexed producer to its own cell."""
        source_alias, target_alias = ctx.query.aliases
        radius = routing.radius

        def cell_of(position) -> Key:
            return ("cell", int(math.floor(position[0] / radius)),
                    int(math.floor(position[1] / radius)))

        for target in self._eligible[target_alias]:
            position = ctx.topology.nodes[target].position
            self._keys_of.setdefault((target_alias, target), []).append(cell_of(position))
        for source in self._eligible[source_alias]:
            position = ctx.topology.nodes[source].position
            keys = set()
            cx, cy = position
            for dx in (-radius, 0.0, radius):
                for dy in (-radius, 0.0, radius):
                    keys.add(cell_of((cx + dx, cy + dy)))
            self._keys_of.setdefault((source_alias, source), []).extend(sorted(keys))
        self._register_pairs(ctx)

    def _register_pairs(self, ctx: ExecutionContext) -> None:
        """Statically joining pairs meet at any key both endpoints send to."""
        source_alias, target_alias = ctx.query.aliases
        target_keys = {
            node: set(self._keys_of.get((target_alias, node), []))
            for node in self._eligible[target_alias]
        }
        source_keys = {
            node: set(self._keys_of.get((source_alias, node), []))
            for node in self._eligible[source_alias]
        }
        for pair in ctx.static_pairs(self._eligible[source_alias],
                                     self._eligible[target_alias]):
            source, target = pair
            shared = source_keys[source] & target_keys[target]
            if shared:
                meeting_key = sorted(shared)[0]
                self._pairs_at_key.setdefault(
                    (meeting_key, source_alias, source), []
                ).append(pair)
                self._pairs_at_key.setdefault(
                    (meeting_key, target_alias, target), []
                ).append(pair)

    # -- routing ----------------------------------------------------------------
    def _resolve_home_nodes(self, ctx: ExecutionContext) -> None:
        all_keys = {key for keys in self._keys_of.values() for key in keys}
        for key in all_keys:
            self._home_of[key] = self.hash_substrate.home_node(key)
        for home in set(self._home_of.values()):
            self._result_path[home] = self.tree.path_to_root(home)

    def _route_to(self, ctx: ExecutionContext, producer: int, home: int) -> List[int]:
        # Both variants route to the actual home node (greedy_route targets
        # the key's hash, so its walk is not what gets charged); the path
        # comes from the topology's epoch-guarded PathCache and is pinned
        # here so a pair keeps using one route until a failure re-homes it.
        cached = self._route_cache.get((producer, home))
        if cached is None:
            cached = ctx.topology.shortest_path(producer, home) or [producer]
            self._route_cache[(producer, home)] = cached
        return cached

    def _charge_initiation(self, ctx: ExecutionContext) -> None:
        """One key-routing round per (producer, key): the home node discovery."""
        control = ctx.sizes.control(num_fields=2)
        for (alias, producer), keys in self._keys_of.items():
            for key in set(keys):
                home = self._home_of[key]
                path = self._route_to(ctx, producer, home)
                ctx.ship(path, control, MessageKind.EXPLORE)

    # ------------------------------------------------------------------
    def execute_cycle(self, ctx: ExecutionContext, cycle: int) -> None:
        self._cycle(ctx, cycle)

    def execute_cycle_batch(self, ctx: ExecutionContext, cycles: range,
                            batcher) -> None:
        """A block of cycles over the cached producer->home and home->base
        routes.

        Data ships are interleaved with verdict-conditioned result ships in
        the reference, so on lossy links the cycle streams through the
        captured-shipping wrapper (scalar draws in ship order, bit-identical
        by construction).  On perfect links every ship delivers: the block
        is one band join, each (producer, key) route charged once per send
        and each home->base route once per cycle its stop produced.
        """
        if not batcher.lossless:
            with ctx.captured_shipping(batcher):
                self._cycle(ctx, cycles.start)
            return
        tables = self._stop_routes(ctx)
        blocks = ctx.sample_producers(cycles, self.producers)
        sides = [self._block_arrivals(block, self._index[block.alias], None)
                 for block in blocks]
        (s_arrivals, _), (t_arrivals, _) = sides
        *found, totals = self.windows.join_block(cycles, s_arrivals, t_arrivals,
                                                 source_first=True)
        produced = path_hops = 0
        for block, (arrivals, entries), counts in zip(blocks, sides, found):
            stops = tables[block.alias]
            batcher.ship_routes(stops.data, block.sends.sum(axis=0)[stops.owner],
                                ctx.data_tuple_size(), MessageKind.DATA)
            width = stops.hops.size
            per_stop = np.bincount(
                arrivals.steps * width + stops.of_entry[entries], weights=counts,
                minlength=len(cycles) * width,
            ).reshape(len(cycles), width).astype(np.int64)
            batcher.ship_routes(stops.results, np.count_nonzero(per_stop, axis=0),
                                ctx.result_tuple_size(), MessageKind.RESULT)
            produced += int(counts.sum())
            path_hops += int(per_stop.sum(axis=0) @ stops.hops)
        self.results.record_block(produced, produced, path_hops)
        self._track_block_storage(totals)

    def _cycle(self, ctx: ExecutionContext, cycle: int) -> None:
        """Ship each reading to its keys' home nodes, join there, forward
        results."""
        source_alias, _ = ctx.query.aliases
        data_size = ctx.data_tuple_size()
        result_size = ctx.result_tuple_size()
        for batch in ctx.sample_cycle(cycle, self.producers):
            from_source = batch.alias == source_alias
            arrivals = self._arrivals(batch, self._index[batch.alias], from_source)
            stops = self._stops[batch.alias]
            reached = np.ones(arrivals.rows.size, dtype=bool)
            counts = arrivals.counts.tolist()
            for position, node_id, start in zip(
                batch.senders.tolist(), batch.node_ids.tolist(),
                self._index[batch.alias].bounds(batch.senders),
            ):
                for key, row_count in stops[position]:
                    home = self._home_of[key]
                    path = self._route_to(ctx, node_id, home)
                    delivered = ctx.ship(path, data_size, MessageKind.DATA)
                    end = start + row_count
                    if not delivered:
                        reached[start:end] = False
                    produced = sum(counts[start:end]) if delivered else 0
                    start = end
                    if not produced:
                        continue
                    result_path = self._result_path.get(home, [home])
                    self.results.record_many(
                        produced,
                        ctx.ship(result_path, result_size, MessageKind.RESULT),
                        path_hops=len(path) - 1 + len(result_path) - 1,
                    )
            self.windows.insert(from_source, arrivals.rows, arrivals.values,
                                cycle, mask=reached)
        self._track_storage()

    def _stop_routes(self, ctx: ExecutionContext) -> Dict[str, "_StopRoutes"]:
        """Per relation, the routes of its stops -- one per (producer,
        key), producer after producer in set order; built with the routes
        and dropped when a failure re-homes keys or re-routes producers."""
        if self._stop_tables is None:
            self._stop_tables = {}
            for alias, members in self.producers.items():
                data, results, owner, hops, of_entry = [], [], [], [], []
                for position, (node_id, node_stops) in enumerate(
                        zip(members.key, self._stops[alias])):
                    for key, row_count in node_stops:
                        home = self._home_of[key]
                        path = self._route_to(ctx, node_id, home)
                        result_path = self._result_path.get(home, [home])
                        of_entry.extend([len(data)] * row_count)
                        data.append((path,))
                        results.append((result_path,))
                        owner.append(position)
                        hops.append(len(path) - 1 + len(result_path) - 1)
                self._stop_tables[alias] = _StopRoutes(
                    RouteHops(data), RouteHops(results),
                    np.array(owner, dtype=np.int64),
                    np.array(of_entry, dtype=np.int64),
                    np.array(hops, dtype=np.int64),
                )
        return self._stop_tables

    def handle_failures(self, ctx: ExecutionContext, failed: List[int], cycle: int) -> None:
        if not failed:
            return
        # The tree may be the deployment's shared one: repair a copy.
        self.tree = self.tree.copy()
        for node_id in failed:
            self.tree.repair_after_failure(node_id, simulator=ctx.simulator)
        failed_set = set(failed)
        self._stop_tables = None
        # Re-home keys whose home node died, and drop stale cached routes.
        for key, home in list(self._home_of.items()):
            if home in failed_set:
                new_home = self.hash_substrate.home_node(key)
                self._home_of[key] = new_home
                self._result_path[new_home] = self.tree.path_to_root(new_home)
        self._route_cache = {
            (producer, home): path
            for (producer, home), path in self._route_cache.items()
            if home not in failed_set and not failed_set.intersection(path)
        }

    def join_nodes_used(self) -> int:
        return len(set(self._home_of.values()))
