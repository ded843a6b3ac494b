"""The Innet pairwise in-network join and its optimized variants.

Innet places a join node on a path between each (s, t) producer pair using
the cost model of Section 3.1, always checking whether joining at the base
station is cheaper.  The variants studied in Section 5 are compositional
flags on top of the same strategy:

* ``cm``  -- per-producer multicast trees with cached state at branching
  nodes, plus opportunistic merging of result packets (Appendix E).
* ``g``   -- multi-join-pair group optimization (GROUPOPT, Section 5.2).
* ``p``   -- path collapsing of node-disjoint paths that pass within one
  radio hop of each other (Algorithms 2-3).
* ``learn`` -- adaptive selectivity learning with join-node migration and
  window hand-off (Section 6).

The paper's figure labels map to: Innet, Innet-cm, Innet-cmg, Innet-cmp,
Innet-cmpg, and "In-net learn".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.adaptive import AdaptivePolicy, LearningState, PairObservation
from repro.core.cost_model import Selectivities
from repro.core.optimizer import JoinPlan, PairwiseOptimizer
from repro.core.placement import CandidateRoutes
from repro.joins.base import (
    Arrivals,
    ExecutionContext,
    JoinStrategy,
    Pair,
    ProducerBatch,
    ProducerSet,
    RowIndex,
)
from repro.joins.multicast import MulticastTree, build_multicast_tree, collapse_paths
from repro.network.batch import RouteHops
from repro.network.message import MessageKind
from repro.query.analysis import EqualityRouting, RegionRouting
from repro.query.window import row_dicts
from repro.routing.multitree import MultiTreeSubstrate
from repro.summaries import BloomFilterSummary, RectSummary

ProducerKey = Tuple[str, int]
#: A reading held back while its pair recovers: (alias, join attribute
#: values, the cycle it was sampled in).
HeldTuple = Tuple[str, Dict[str, Any], int]
#: How one producer's tuple reaches its join nodes: its multicast tree (or
#: ``None``) and, for each of its pairs whose join node the tree does not
#: reach, ``(offset among the producer's rows, join node, path)``.
ProducerRoute = Tuple[Optional[MulticastTree], List[Tuple[int, int, List[int]]]]
#: Cycles a pair's limited-exploration repair takes after a failure touches
#: its join node or paths; after it the pair joins at the base (Section 7).
FAILOVER_CYCLES = 5


@dataclass(frozen=True)
class InnetVariant:
    """Which of the Section 5/6 optimizations are enabled."""

    multicast: bool = False
    group_optimization: bool = False
    path_collapse: bool = False
    merging: bool = False
    learning: bool = False

    @property
    def label(self) -> str:
        if not any((self.multicast, self.group_optimization, self.path_collapse,
                    self.learning)):
            return "innet"
        suffix = ""
        if self.multicast:
            suffix += "cm"
        if self.path_collapse:
            suffix += "p"
        if self.group_optimization:
            suffix += "g"
        name = f"innet-{suffix}" if suffix else "innet"
        if self.learning:
            name += "-learn"
        return name

    # -- the named configurations used in the paper's figures ----------------
    @staticmethod
    def basic() -> "InnetVariant":
        return InnetVariant()

    @staticmethod
    def cm() -> "InnetVariant":
        return InnetVariant(multicast=True, merging=True)

    @staticmethod
    def cmg() -> "InnetVariant":
        return InnetVariant(multicast=True, merging=True, group_optimization=True)

    @staticmethod
    def cmp() -> "InnetVariant":
        return InnetVariant(multicast=True, merging=True, path_collapse=True)

    @staticmethod
    def cmpg() -> "InnetVariant":
        return InnetVariant(multicast=True, merging=True, path_collapse=True,
                            group_optimization=True)

    @staticmethod
    def learn(base: Optional["InnetVariant"] = None) -> "InnetVariant":
        base = base or InnetVariant.cmpg()
        return InnetVariant(
            multicast=base.multicast,
            group_optimization=base.group_optimization,
            path_collapse=base.path_collapse,
            merging=base.merging,
            learning=True,
        )


class _BlockRoutes(NamedTuple):
    """What a lossless block of cycles charges, derived from the delivery
    routes: per relation, each producer's DATA route (set position), and
    per join node of the plan its results' route to the base."""

    data: Dict[str, RouteHops]
    join_nodes: np.ndarray      # the plan's join nodes, ascending
    join_of_row: np.ndarray     # per window row, its join node's index
    results: RouteHops          # per join node, its path to the base
    result_hops: np.ndarray     # per join node, that path's hops
    delivered: np.ndarray       # per join node, whether results get there


class _Exploration(NamedTuple):
    """One query's exploration on a shared substrate: the candidate routes
    of each statically joining pair it found and, for a content search, its
    messages as one-hop edges (senders, receivers, sizes) in search order
    (``None``: per pair an EXPLORE along its route and the reply back)."""

    routes: CandidateRoutes
    edges: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]

    def ship(self, ctx: ExecutionContext) -> None:
        if self.edges is None:
            ctx.ship_paths(self.routes.path_messages(ctx.sizes.explore(self.routes.lengths)))
        else:
            ctx.ship_edges(*self.edges, MessageKind.EXPLORE)


def _route_pairs(substrate: MultiTreeSubstrate, static_pairs) -> _Exploration:
    """Route every statically joining pair once along its best tree route,
    out and back (no routable static join clause to search on)."""
    pairs = list(static_pairs)
    return _Exploration(CandidateRoutes.build(
        pairs, [(route,) for route in substrate.best_routes(pairs)],
        substrate.hops_to_base_array()), None)


def _explore(topology, substrate: MultiTreeSubstrate, routing,
             sources: List[int], static_pairs) -> _Exploration:
    """Search from every eligible source for its statically joining targets
    (Section 2.2), over the first two trees of *substrate*."""
    nodes = topology.nodes
    paths: Dict[Pair, List[List[int]]] = {}
    edges: List[Tuple[int, int, int]] = []
    for source in sources:
        if isinstance(routing, EqualityRouting):
            attr = routing.indexed_attribute
            value = routing.required_value(nodes[source].static_attributes)

            def probe(summary, v=value):
                return summary.might_contain(v)

            def near(node, v=value):
                return nodes[node].static_attributes.get(attr) == v
        else:
            attr, radius, position = "pos", routing.radius, nodes[source].position

            def probe(summary, p=position):
                return summary.intersects_radius(p, radius)

            def near(node, src=source):
                return topology.distance(src, node) <= radius
        result = substrate.find_matches(
            source, attr, probe,
            lambda node, src=source, near=near: (src, node) in static_pairs and near(node),
            max_trees=2,
        )
        paths.update(((source, target), [found.path for found in candidates])
                     for target, candidates in result.paths.items())
        edges.extend(result.edges)
    # int32 columns, copied out: the memo keeps this for the deployment's life
    senders, receivers, lengths = np.array(edges, dtype=np.int32).reshape(-1, 3).T.copy()
    routes = CandidateRoutes.build(list(paths), list(paths.values()),
                                   substrate.hops_to_base_array())
    return _Exploration(routes, (senders, receivers, substrate.sizes.explore(lengths)))


def _repaired_path_to_base(substrate: MultiTreeSubstrate):
    """A node's path to the base station on a repaired *substrate*, or a
    shortest path where the repaired tree no longer reaches it.  (A closure
    over the substrate, not a strategy method: the plan's table keeps it,
    and a bound method would tie the strategy into a reference cycle.)"""
    topology = substrate.topology

    def path_to_base(node_id: int) -> Sequence[int]:
        try:
            return substrate.base_path(node_id)
        except KeyError:
            return topology.shortest_path(node_id, topology.base_id) or [node_id]

    return path_to_base


class InnetJoin(JoinStrategy):
    """Pairwise in-network join with cost-based join-node placement."""

    def __init__(
        self,
        variant: Optional[InnetVariant] = None,
        num_trees: int = 3,
        adaptive_policy: Optional[AdaptivePolicy] = None,
    ) -> None:
        super().__init__()
        self.variant = variant or InnetVariant.basic()
        self.name = self.variant.label
        self.num_trees = num_trees
        self.adaptive_policy = adaptive_policy or AdaptivePolicy()

        self.substrate: Optional[MultiTreeSubstrate] = None
        self.optimizer: Optional[PairwiseOptimizer] = None
        self.plan: Optional[JoinPlan] = None
        self._eligible: Dict[str, List[int]] = {}
        #: per producer its pairs, and their rows in the plan's pair table
        self._pairs_of: Dict[ProducerKey, List[Pair]] = {}
        self._rows_of: Dict[ProducerKey, np.ndarray] = {}
        #: per producer what its multicast tree was built from
        self._tree_inputs: Dict[ProducerKey, Tuple[int, bytes]] = {}
        self._multicast: Dict[ProducerKey, MulticastTree] = {}
        self._learning: Dict[Pair, LearningState] = {}
        self._observations: List[PairObservation] = []  # by window row
        #: pair -> the cycle its failure recovery ends; ``_held`` flags the
        #: same pairs by window row
        self._recovering: Dict[Pair, int] = {}
        self._held = np.zeros(0, dtype=bool)
        self._backlog: Dict[Pair, List[HeldTuple]] = {}
        #: window row -> pair (the store's row order), and its table row
        self._pairs: List[Pair] = []
        self._plan_rows = np.zeros(0, dtype=np.int64)
        self._index: Dict[str, RowIndex] = {}
        #: Derived from the plan's current decisions on first use after
        #: :meth:`rebuild_delivery`: per alias and producer (set position)
        #: its :data:`ProducerRoute`, and per window row its join node.
        self._routes: Optional[Dict[str, List[Optional[ProducerRoute]]]] = None
        self._join_node_of_row = np.zeros(0, dtype=np.int64)
        #: (the ``_routes`` it was built from, :meth:`_block_routes`)
        self._block_tables: Optional[Tuple[Any, _BlockRoutes]] = None
        self.reoptimizations = 0

    # ------------------------------------------------------------------
    # initiation
    # ------------------------------------------------------------------
    def initiate(self, ctx: ExecutionContext) -> None:
        self._eligible = ctx.eligible()
        self.substrate = self._build_substrate(ctx)
        self.optimizer = PairwiseOptimizer(
            self.substrate, window_size=ctx.query.window_size, sizes=ctx.sizes
        )
        routes = self._discover_pairs(ctx)
        assumed = [ctx.selectivities_for(pair) for pair in
                   zip(routes.sources.tolist(), routes.targets.tolist())]
        self.plan = self.optimizer.optimize_pairs(routes, assumed, ship=ctx.ship_paths)
        if self.variant.group_optimization:
            self.optimizer.apply_group_optimization(self.plan, ship=ctx.ship)
        # The plan's pair set is fixed from here on (re-optimization only
        # moves join nodes), so the window rows and each producer's pairs
        # are too.
        self._pairs = self.plan.pairs()
        self._plan_rows = self.plan.table.sorted_rows
        source_alias, target_alias = ctx.query.aliases
        rows_of: Dict[ProducerKey, List[int]] = {}
        for pair, row in zip(self._pairs, self._plan_rows.tolist()):
            for key in ((source_alias, pair[0]), (target_alias, pair[1])):
                self._pairs_of.setdefault(key, []).append(pair)
                rows_of.setdefault(key, []).append(row)
        self._rows_of = {key: np.array(rows, dtype=np.int64)
                         for key, rows in rows_of.items()}
        self.rebuild_delivery(ctx)
        self._open_windows(ctx, self._pairs, keep_recent=True)
        self._held = np.zeros(len(self._pairs), dtype=bool)
        for alias in ctx.query.aliases:
            self.producers[alias] = ProducerSet(self._eligible[alias])
            self._index[alias] = self._row_index(alias, {
                node_id: pairs
                for (producer_alias, node_id), pairs in self._pairs_of.items()
                if producer_alias == alias
            })
        if self.variant.learning:
            table = self.plan.table
            for pair, assumed in zip(table.pairs, table.assumed):
                self._learning[pair] = LearningState(
                    current=assumed, window_size=ctx.query.window_size
                )
            self._observations = [
                self._learning[pair].observation for pair in self._pairs
            ]

    def _build_substrate(self, ctx: ExecutionContext) -> MultiTreeSubstrate:
        """The deployment's shared substrate for this tree count, indexed
        attribute and message sizes, built once per routing epoch.

        Its value extractors close over the topology, not the run's
        context, so the memo keeps no run alive.  Summary structures are
        built during routing-tree construction (Appendix C), which -- like
        the tree flood itself -- is substrate setup shared by all queries,
        so it is not charged to this query's initiation.
        """
        routing = ctx.analysis.routing_predicate
        topology, sizes, num_trees = ctx.topology, ctx.sizes, self.num_trees
        attr, indexed, extractors = None, {}, {}
        if isinstance(routing, EqualityRouting):
            attr = routing.indexed_attribute
            indexed[attr] = lambda: BloomFilterSummary(num_bits=256)
            extractors[attr] = lambda n: topology.nodes[n].static_attributes.get(attr)
        elif isinstance(routing, RegionRouting):
            attr = "pos"
            indexed[attr] = RectSummary
            extractors[attr] = lambda n: topology.nodes[n].position
        return topology.routing_cache.memo.get(
            "substrate", (num_trees, attr, sizes),
            lambda: MultiTreeSubstrate(
                topology, num_trees=num_trees, indexed_attributes=indexed or None,
                value_extractors=extractors or None, sizes=sizes,
            ))

    def _discover_pairs(self, ctx: ExecutionContext) -> CandidateRoutes:
        """Exploration: find matching (s, t) pairs and candidate paths.

        Without a routable static join clause every statically joining pair
        is a candidate, and exploration routes once along its best tree
        route and back.  Either way exploration is a pure function of the
        substrate, the routing predicate, the sources and the statically
        joining pairs, so it runs once per deployment; every run ships the
        recorded messages.
        """
        source_alias, target_alias = ctx.query.aliases
        routing = ctx.analysis.routing_predicate
        sources, targets = self._eligible[source_alias], self._eligible[target_alias]
        static_pairs = ctx.static_pairs(sources, targets)
        substrate = self.substrate
        if routing is None:
            key = (substrate, None, tuple(static_pairs))
            build = lambda: _route_pairs(substrate, static_pairs)  # noqa: E731
        else:
            key = (substrate, routing, tuple(sources), tuple(static_pairs))
            build = lambda: _explore(ctx.topology, substrate, routing,  # noqa: E731
                                     sources, static_pairs)
        exploration = ctx.topology.routing_cache.memo.get("exploration", key, build)
        exploration.ship(ctx)
        return exploration.routes

    # ------------------------------------------------------------------
    # delivery structures
    # ------------------------------------------------------------------
    @property
    def group_optimizes(self) -> bool:
        plan = self.plan
        return (plan is not None and bool(plan.table.pairs)
                and self.variant.group_optimization)

    def rebuild_delivery(self, ctx: ExecutionContext,
                         producers: Optional[List[ProducerKey]] = None) -> None:
        """(Re)build per-producer shipping structures from the current plan.

        A producer's multicast tree is rebuilt only when the paths its pairs
        ship along changed (or the topology did, for path collapsing); with
        *producers*, only theirs and producers that have none yet.
        """
        self._routes = None
        if not self.variant.multicast:
            self._multicast = {}
            return
        source_alias = ctx.query.aliases[0]
        table = self.plan.table
        path_keys = {True: table.path_keys(True), False: table.path_keys(False)}
        epoch = ctx.topology.routing_epoch
        rebuilt: Dict[ProducerKey, MulticastTree] = {}
        wanted = set(producers) if producers is not None else None
        for producer_key, rows in self._rows_of.items():
            previous = self._multicast.get(producer_key)
            if previous is not None and wanted is not None and producer_key not in wanted:
                rebuilt[producer_key] = previous
                continue
            alias, node_id = producer_key
            source_side = alias == source_alias
            keys = path_keys[source_side][rows]
            inputs = (epoch, keys.tobytes())
            if self._tree_inputs.get(producer_key) == inputs:
                if previous is not None:
                    rebuilt[producer_key] = previous
                continue
            self._tree_inputs[producer_key] = inputs
            distinct = rows.tolist()
            if not self.variant.path_collapse:
                # a path shipped twice adds nothing to the tree
                first_row: Dict[int, int] = {}
                for key, row in zip(keys.tolist(), distinct):
                    first_row.setdefault(key, row)
                distinct = list(first_row.values())
            paths = [path for path in (table.path_to_join(row, source_side)
                                       for row in distinct) if len(path) > 1]
            if not paths:
                continue
            if self.variant.path_collapse:
                paths = collapse_paths(ctx.topology, node_id, paths)
            tree = build_multicast_tree(node_id, paths)
            rebuilt[producer_key] = tree
            if tree.parent and (previous is None or previous.parent != tree.parent):
                # Push the (updated) multicast tree state to the branching
                # nodes so path vectors can be compressed (Appendix E).
                ctx.simulator.broadcast(
                    node_id, max(1, tree.maintenance_bytes()), MessageKind.CONTROL
                )
        self._multicast = rebuilt

    def _delivery_routes(self, ctx: ExecutionContext
                         ) -> Dict[str, List[Optional[ProducerRoute]]]:
        """Per-producer shipping routes under the plan's current decisions."""
        if self._routes is None:
            table = self.plan.table
            self._join_node_of_row = table.join[self._plan_rows]
            source_alias = ctx.query.aliases[0]
            routes: Dict[str, List[Optional[ProducerRoute]]] = {}
            for alias, members in self.producers.items():
                source_side = alias == source_alias
                routes[alias] = per_producer = []
                for node_id in members.key:
                    rows = self._rows_of.get((alias, node_id))
                    if rows is None:
                        per_producer.append(None)
                        continue
                    tree = self._multicast.get((alias, node_id))
                    reached = tree.destinations if tree is not None else ()
                    per_producer.append((tree, [
                        (offset, join_node, table.path_to_join(row, source_side))
                        for offset, (row, join_node) in enumerate(zip(
                            rows.tolist(), table.join[rows].tolist()))
                        if join_node not in reached
                    ]))
            self._routes = routes
        return self._routes

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute_cycle(self, ctx: ExecutionContext, cycle: int) -> None:
        self._cycle(ctx, cycle)

    def execute_cycle_batch(self, ctx: ExecutionContext, cycles: range,
                            batcher) -> None:
        """A block of sampling cycles with tree- and path-shipping batched.

        On lossy links control flow depends on per-ship verdicts, so the
        cycle streams through the captured-shipping wrapper (scalar draws in
        ship order -- bit-identical by construction; multicast trees still
        ship as per-sample edge blocks via :meth:`_ship_tree_edges`).  On
        perfect links every ship delivers, so the block is one band join:
        each producer's route (its multicast tree and direct join paths) is
        charged once per send, and each join node's results once per cycle
        it produced any.  No pair recovers here: recovery follows a node
        failure, and the executor runs no cycle with a dead node on the
        kernel.
        """
        if not batcher.lossless:
            with ctx.captured_shipping(batcher):
                self._cycle(ctx, cycles.start)
            return
        tables = self._block_routes(ctx)
        blocks = ctx.sample_producers(cycles, self.producers)
        sides = [self._block_arrivals(block, self._index[block.alias], None)[0]
                 for block in blocks]
        *found, totals = self.windows.join_block(cycles, *sides, source_first=True)
        for block in blocks:
            batcher.ship_routes(tables.data[block.alias], block.sends.sum(axis=0),
                                ctx.data_tuple_size(), MessageKind.DATA)
        if self._learning:
            self._observe_block(sides, found)
        # per cycle and join node, the results produced there
        steps = np.concatenate([side.steps for side in sides])
        at = tables.join_of_row[np.concatenate([side.rows for side in sides])]
        width = tables.join_nodes.size
        produced = np.bincount(
            steps * width + at, weights=np.concatenate(found),
            minlength=len(cycles) * width,
        ).reshape(len(cycles), width).astype(np.int64)
        self._forward_block(ctx, batcher, tables, produced)
        if self.variant.learning:
            with ctx.captured_shipping(batcher):
                self._learn(ctx, cycles)
        self._track_block_storage(totals)

    def block_end(self, cycle: int, end: int) -> int:
        """A learning variant's block ends with its next check or reset
        cycle, and before any pair's observation counters would roll over."""
        if self._learning:
            policy = self.adaptive_policy
            for interval in (policy.check_interval, policy.reset_interval):
                end = min(end, max(interval, -(-cycle // interval) * interval) + 1)
            room = min(learning.observation.observation_cap - learning.observation.cycles
                       for learning in self._learning.values())
            end = min(end, cycle + room)
        return end

    def _cycle(self, ctx: ExecutionContext, cycle: int) -> None:
        """Sample, ship to the join nodes, join, forward results, learn.

        Per relation, source first: probe every arriving tuple against the
        opposite windows, ship, then buffer what got through -- so the
        target relation joins against exactly the source tuples delivered
        this cycle.
        """
        source_alias, _ = ctx.query.aliases
        batches = ctx.sample_cycle(cycle, self.producers)
        data_size = ctx.data_tuple_size()
        #: join node -> [results produced there, their summed delays]
        produced_at: Dict[int, List[int]] = {}
        self._finish_recoveries(ctx, cycle, produced_at)
        routes = self._delivery_routes(ctx)
        for batch in batches:
            from_source = batch.alias == source_alias
            arrivals = self._arrivals(batch, self._index[batch.alias], from_source)
            delivered = self._ship_to_join_nodes(
                ctx, batch, arrivals, routes[batch.alias], data_size, cycle
            )
            self.windows.insert(from_source, arrivals.rows, arrivals.values,
                                cycle, mask=delivered)
            self._record_arrivals(arrivals, delivered, from_source, produced_at)
        self._forward_results(ctx, produced_at)
        if self.variant.learning:
            self._learn(ctx, range(cycle, cycle + 1))
        self._track_storage()

    def _block_routes(self, ctx: ExecutionContext) -> "_BlockRoutes":
        """The routes a lossless block charges, derived from
        :meth:`_delivery_routes` and rebuilt whenever those are."""
        routes = self._delivery_routes(ctx)
        cached = self._block_tables
        if cached is not None and cached[0] is routes:
            return cached[1]
        data = {}
        for alias, per_producer in routes.items():
            producer_routes = []
            for route in per_producer:
                if route is None:
                    producer_routes.append(())
                    continue
                tree, unreached = route
                paths = [] if tree is None else list(zip(*(
                    side.tolist() for side in tree.edge_arrays())))
                shipped = set()
                for _, join_node, path in unreached:
                    if join_node not in shipped:
                        shipped.add(join_node)
                        paths.append(path)
                producer_routes.append(paths)
            data[alias] = RouteHops(producer_routes)
        join_nodes = np.unique(self._join_node_of_row)
        results, hops, delivered = [], [], []
        for join_node in join_nodes.tolist():
            at_base = join_node == ctx.base_id
            covered = at_base or self.substrate.primary_tree.covers(join_node)
            path = (self.substrate.path_to_base(join_node)
                    if covered and not at_base else [join_node])
            results.append((path,))
            hops.append(len(path) - 1)
            delivered.append(covered)
        tables = _BlockRoutes(
            data=data, join_nodes=join_nodes,
            join_of_row=np.searchsorted(join_nodes, self._join_node_of_row),
            results=RouteHops(results), result_hops=np.array(hops, dtype=np.int64),
            delivered=np.array(delivered, dtype=bool),
        )
        self._block_tables = (routes, tables)
        return tables

    def _observe_block(self, sides, found) -> None:
        """A block's tuples and results, summed per learning pair."""
        rows = len(self._pairs)
        observations = self._observations
        for from_source, side, counts in zip((True, False), sides, found):
            tuples = np.bincount(side.rows, minlength=rows)
            results = np.bincount(side.rows, weights=counts, minlength=rows)
            for row in np.flatnonzero(tuples).tolist():
                observation = observations[row]
                if from_source:
                    observation.record_source_tuple(int(tuples[row]))
                else:
                    observation.record_target_tuple(int(tuples[row]))
                observation.record_results(int(results[row]))

    def _forward_block(self, ctx: ExecutionContext, batcher,
                       tables: "_BlockRoutes", produced: np.ndarray) -> None:
        """:meth:`_forward_results` for every cycle of a block: *produced*
        holds per cycle and join node how many results it produced."""
        per_node = produced.sum(axis=0)
        delivered = per_node * tables.delivered
        self.results.record_block(int(per_node.sum()), int(delivered.sum()),
                                  int(delivered @ tables.result_hops))
        result_size = ctx.result_tuple_size()
        if not self.variant.merging:
            batcher.ship_routes(tables.results, delivered, result_size,
                                MessageKind.RESULT)
            return
        # one merged message per cycle and join node, sized by its count
        payload = result_size - ctx.sizes.header
        shipped = produced * tables.delivered
        for count in np.unique(shipped[shipped > 0]).tolist():
            batcher.ship_routes(tables.results, (shipped == count).sum(axis=0),
                                ctx.sizes.header + payload * count,
                                MessageKind.RESULT)

    def _ship_to_join_nodes(
        self,
        ctx: ExecutionContext,
        batch: ProducerBatch,
        arrivals: Arrivals,
        routes: List[Optional[ProducerRoute]],
        data_size: int,
        cycle: int,
    ) -> Optional[np.ndarray]:
        """Ship one relation's tuples, verdict by verdict, in sample order.

        Returns which arrival rows the tuple reached (``None`` = all).  A
        tuple travels to each *distinct* join node once; all pairs the
        producer has at that node share the message, and a pair whose ship
        was lost retries for the next pair at the same node.
        """
        delivered: Optional[np.ndarray] = None
        held: Optional[List[bool]] = None
        if self._recovering:
            # Pairs under repair neither ship nor join: their readings wait
            # in the backlog until the pair re-homes at the base station.
            waiting = self._held[arrivals.rows]
            if waiting.any():
                delivered = ~waiting
                held = waiting.tolist()
                rows = arrivals.rows[waiting].tolist()
                tuples = row_dicts(
                    {a: c[waiting] for a, c in arrivals.values.items()}, len(rows)
                )
                for row, values in zip(rows, tuples):
                    self._backlog.setdefault(self._pairs[row], []).append(
                        (batch.alias, values, cycle)
                    )
        starts = self._index[batch.alias].bounds(batch.senders)
        for position, start in zip(batch.senders.tolist(), starts):
            route = routes[position]
            if route is None:
                continue
            tree, unreached = route
            if tree is not None:
                self._ship_tree_edges(ctx, tree, data_size)
            shipped_join_nodes = set()
            for offset, join_node, path in unreached:
                if join_node in shipped_join_nodes:
                    continue
                if held is not None and held[start + offset]:
                    continue
                if ctx.ship(path, data_size, MessageKind.DATA):
                    shipped_join_nodes.add(join_node)
                else:
                    if delivered is None:
                        delivered = np.ones(arrivals.rows.size, dtype=bool)
                    delivered[start + offset] = False
        return delivered

    def _record_arrivals(self, arrivals: Arrivals, delivered: Optional[np.ndarray],
                         from_source: bool, produced_at: Dict[int, List[int]]) -> None:
        """Credit the delivered tuples' results to their join nodes (in
        first-result order, which is the order results are forwarded in) and
        their observations to the learning pairs."""
        rows, counts = arrivals.rows, arrivals.counts
        if delivered is not None:
            rows, counts = rows[delivered], counts[delivered]
        if self._learning:
            observations = self._observations
            for row, count in zip(rows.tolist(), counts.tolist()):
                observation = observations[row]
                if from_source:
                    observation.record_source_tuple()
                else:
                    observation.record_target_tuple()
                observation.record_results(count)
        productive = counts.nonzero()[0]
        if not productive.size:
            return
        # A tuple sampled this cycle joins with no delay: the older tuple of
        # every result was already waiting in the window.
        join_nodes = self._join_node_of_row[rows[productive]]
        if (join_nodes == join_nodes[0]).all():  # typically: all at the base
            produced_at.setdefault(int(join_nodes[0]), [0, 0])[0] += int(
                counts[productive].sum()
            )
            return
        for join_node, count in zip(join_nodes.tolist(), counts[productive].tolist()):
            produced_at.setdefault(join_node, [0, 0])[0] += count

    def _ship_tree_edges(self, ctx: ExecutionContext, tree: MulticastTree,
                         data_size: int) -> None:
        """Push one tuple down a producer's multicast tree, edge by edge.

        With a cycle batcher captured the whole tree ships as one flat edge
        block (``ship_edges`` preserves the per-edge RNG draw order, so
        lossy-link verdicts stay bit-identical to the sequential loop).
        Capturers without an edge-block API (the service mode's shared
        shipment plane, which dedupes per edge across queries) get the
        sequential loop (:meth:`ExecutionContext.ship_edges`).
        Edge delivery verdicts are intentionally ignored either way: cached
        tree state at branching nodes retransmits locally (Appendix E).
        """
        senders, receivers = tree.edge_arrays()
        ctx.ship_edges(senders, receivers, data_size, MessageKind.DATA)

    def _forward_results(self, ctx: ExecutionContext,
                         produced_at: Dict[int, List[int]]) -> None:
        result_size = ctx.result_tuple_size()
        payload = result_size - ctx.sizes.header
        for join_node, (count, delay) in produced_at.items():
            if join_node == ctx.base_id:
                self.results.record_many(count, True, delay_cycles=delay)
                continue
            if self.substrate.primary_tree.covers(join_node):
                path = self.substrate.path_to_base(join_node)
            else:
                # The join node dropped out of the repaired routing tree (it
                # failed this cycle); its results of this cycle are lost.
                self.results.record_many(count, False)
                continue
            if self.variant.merging:
                merged_size = ctx.sizes.header + payload * count
                delivered = ctx.ship(path, merged_size, MessageKind.RESULT)
            else:
                delivered = True
                for _ in range(count):
                    delivered = ctx.ship(path, result_size, MessageKind.RESULT) and delivered
            self.results.record_many(count, delivered, delay_cycles=delay,
                                     path_hops=len(path) - 1)

    # ------------------------------------------------------------------
    # adaptive learning (Section 6)
    # ------------------------------------------------------------------
    def _learn(self, ctx: ExecutionContext, cycles: range) -> None:
        """Count *cycles* as observed, then check and reset as the policy
        says at the last of them (the block rule makes it the only one that
        can be a check or reset cycle)."""
        policy = self.adaptive_policy
        changed_producers: List[ProducerKey] = []
        updated_pairs: List[Pair] = []
        source_alias, target_alias = ctx.query.aliases
        cycle = cycles.stop - 1
        checking = policy.is_check_cycle(cycle) or policy.is_reset_cycle(cycle)
        table = self.plan.table
        updates: List[Selectivities] = []
        for pair, learning in self._learning.items():
            learning.observation.record_cycle(len(cycles))
            if not checking:
                continue
            updated = learning.maybe_update(policy, cycle)
            if updated is not None:
                updated_pairs.append(pair)
                updates.append(updated)
        if not updated_pairs:
            return
        # Re-place the pairs with the learned estimates; nominations are
        # charged below, and only for pairs whose join node actually moved.
        old_join_nodes = table.join.copy()
        self.optimizer.reoptimize_pairs(self.plan, updated_pairs, updates)
        self.reoptimizations += len(updated_pairs)
        self._routes = None  # re-placed pairs ship along new paths
        # Section 6: learning also re-triggers the multi-pair optimization, but
        # only the groups containing re-estimated pairs exchange messages.
        if self.variant.group_optimization:
            self.optimizer.apply_group_optimization(self.plan, ship=ctx.ship,
                                                    updated=set(updated_pairs))
        nomination_size = ctx.sizes.control(num_fields=3)
        for pair, row in zip(self._pairs, self._plan_rows.tolist()):
            old_join, new_join = int(old_join_nodes[row]), int(table.join[row])
            if new_join != old_join:
                ctx.ship_paths(table.nomination_messages([row], nomination_size))
                self._transfer_window(ctx, pair, old_join, new_join)
                changed_producers.append((source_alias, pair[0]))
                changed_producers.append((target_alias, pair[1]))
        if changed_producers:
            self.rebuild_delivery(ctx, producers=changed_producers)

    def _transfer_window(self, ctx: ExecutionContext, pair: Pair,
                         old_join: int, new_join: int) -> None:
        """Move the pair's buffered window to the new join node (Section 6)."""
        if old_join == new_join:
            return
        tuples = self.windows.buffered(self.windows.row_of[pair])
        if tuples == 0:
            return
        try:
            path = self.substrate.best_route(old_join, new_join)
        except ValueError:
            return
        size = ctx.sizes.header + tuples * ctx.sizes.attribute * 2
        ctx.ship(path, size, MessageKind.WINDOW_TRANSFER)

    # ------------------------------------------------------------------
    # failures (Section 7)
    # ------------------------------------------------------------------
    def handle_failures(self, ctx: ExecutionContext, failed: List[int], cycle: int) -> None:
        if not failed:
            return
        failed_set = set(failed)
        self._block_tables = None
        # The substrate may be the deployment's shared one: repair a copy.
        self.substrate = self.substrate.copy()
        self.optimizer.use_substrate(self.substrate)
        for node_id in failed:
            self.substrate.repair_after_failure(node_id, simulator=ctx.simulator)
        table = self.plan.table
        table.rebase(_repaired_path_to_base(self.substrate))
        for pair, row in zip(self._pairs, self._plan_rows.tolist()):
            # A dead producer simply stops contributing, but the pair's join
            # node and paths must still be repaired if the failure touched
            # them, so the surviving producer keeps a working join location.
            if int(table.join[row]) in failed_set or failed_set.intersection(
                table.path_to_join(row, True)
            ) or failed_set.intersection(table.path_to_join(row, False)):
                # Limited-exploration repair takes a couple of cycles; after it
                # the pair joins at the base station (Section 7).
                self._recovering[pair] = cycle + FAILOVER_CYCLES
                self._held[self.windows.row_of[pair]] = True

    def _finish_recoveries(self, ctx: ExecutionContext, cycle: int,
                           produced_at: Dict[int, List[int]]) -> None:
        source_alias, target_alias = ctx.query.aliases
        finished = [p for p, until in self._recovering.items() if until <= cycle]
        store = self.windows
        table = self.plan.table
        for pair in finished:
            del self._recovering[pair]
            row = store.row_of[pair]
            self._held[row] = False
            # Switch the pair to joining at the base station.
            plan_row = table.row_of[pair]
            table.rewrite_to_base([plan_row], base_cost=0.0)
            base = table.decision(plan_row)
            # Forward the last w tuples from each producer so the base can
            # rebuild the join window, then replay the backlog.  The dead
            # join node already joined the forwarded tuples with one
            # another, so only the backlog probes.
            replays: List[Tuple[HeldTuple, bool]] = [
                ((alias, values, sampled), False)
                for alias in (source_alias, target_alias)
                for values, sampled in store.recent(row, alias == source_alias)
            ]
            replays.extend((held, True) for held in self._backlog.pop(pair, []))
            # Start a fresh window at the base.
            store.reset_row(row)
            data_size = ctx.data_tuple_size()
            for (alias, values, sampled), probe in replays:
                from_source = alias == source_alias
                producer = pair[0] if from_source else pair[1]
                if not ctx.topology.nodes[producer].alive:
                    continue
                path = base.source_to_join if from_source else base.target_to_join
                if not ctx.ship(path, data_size, MessageKind.DATA):
                    continue
                matched = store.probe_row(row, from_source, values, sampled, probe)
                if matched:
                    entry = produced_at.setdefault(base.join_node, [0, 0])
                    entry[0] += len(matched)
                    entry[1] += sum(
                        max(0, cycle - max(sampled, other)) for other in matched
                    )
            self.rebuild_delivery(ctx)

    # ------------------------------------------------------------------
    def join_nodes_used(self) -> int:
        return len(self.plan.join_nodes())
