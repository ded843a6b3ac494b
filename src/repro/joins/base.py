"""Shared infrastructure for join strategies.

A :class:`JoinStrategy` is given an :class:`ExecutionContext` (query analysis,
topology, simulator, data source, assumed selectivities) and implements two
phases: ``initiate`` (pre-computation, exploration, join-node placement --
Section 2.1 tasks 1-3) and ``execute_cycle`` (task 4: per-sampling-cycle
sampling, shipping, joining and result forwarding) -- with
``execute_cycle_batch`` the same task on the batch-cycle kernel, a block of
cycles at a time.  The :class:`~repro.joins.executor.JoinExecutor` drives
the strategy and collects an :class:`ExecutionReport`.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Protocol,
    Sequence, Tuple, Union,
)

import numpy as np

from repro.core.cost_model import Selectivities
from repro.core.optimizer import JoinPlan
from repro.network.batch import CycleBatcher, PathMessages
from repro.network.message import MessageKind, MessageSizes
from repro.network.simulator import NetworkSimulator
from repro.network.topology import Topology
from repro.query.analysis import QueryAnalysis
from repro.query.expressions import as_column
from repro.query.query import JoinQuery
from repro.query.window import BlockArrivals, Columns, WindowStore, row_dicts

Pair = Tuple[int, int]


class DataSource(Protocol):
    """Supplies dynamic attribute values for every node and sampling cycle."""

    def sample_columns(self, node_ids: Sequence[int],
                       cycles: Union[int, range]) -> Dict[str, np.ndarray]:
        """Every node's dynamic attributes, the same names for every node:
        for an int cycle one ``[node]`` array per attribute, for a ``range``
        of cycles one ``[cycle, node]`` array."""
        ...

    def next_switch(self, cycle: int) -> Optional[int]:
        """The first cycle after *cycle* from which the source draws from a
        new regime (a block of cycles never spans one); ``None`` when no
        switch follows."""
        ...


SelectivityProvider = Union[Selectivities, Callable[[Pair], Selectivities]]

#: Per-source memo bound: a failure sweep reuses one data source across many
#: node sets that never repeat, so the memo is dropped rather than grown.
_SAMPLE_MEMO_MAX = 8192


def _sample_columns(data_source: DataSource, node_ids: Tuple[int, ...],
                    cycles: range) -> Columns:
    """One ``[cycle, node]`` column per dynamic attribute."""
    raw = data_source.sample_columns(node_ids, cycles.start if len(cycles) == 1 else cycles)
    return {a: as_column(values).reshape(len(cycles), len(node_ids))
            for a, values in raw.items()}


class ProducerSet:
    """A fixed, ordered list of producer nodes, prepared for sampling.

    Strategies build one per relation at initiation; the service engine
    builds one over the union of its sessions' producers.  Besides the ids
    it memoizes what depends only on the set and the topology's routing
    epoch: static attribute columns, the liveness mask, and where its nodes
    sit inside a larger set that is sampled in its place.
    """

    def __init__(self, node_ids: Sequence[int]) -> None:
        self.key: Tuple[int, ...] = tuple(node_ids)
        self.ids = np.array(self.key, dtype=np.int64)
        self._epoch = -1
        self._static: Columns = {}
        self._alive: Optional[np.ndarray] = None
        self._within: Tuple[Optional["ProducerSet"], Optional[np.ndarray]] = (None, None)

    def __len__(self) -> int:
        return len(self.key)

    def _at_epoch(self, topology: Topology) -> None:
        if topology.routing_epoch != self._epoch:
            self._epoch = topology.routing_epoch
            self._static = {}
            self._alive = None

    def static_column(self, topology: Topology, attribute: str) -> np.ndarray:
        self._at_epoch(topology)
        column = self._static.get(attribute)
        if column is None:
            nodes = topology.nodes
            column = self._static[attribute] = as_column(
                [nodes[n].static_attributes[attribute] for n in self.key]
            )
        return column

    def alive_mask(self, topology: Topology, alive: frozenset) -> np.ndarray:
        self._at_epoch(topology)
        if self._alive is None:
            self._alive = np.fromiter(
                (n in alive for n in self.key), dtype=bool, count=len(self.key)
            )
        return self._alive

    def positions_in(self, universe: "ProducerSet") -> np.ndarray:
        """Index of each of this set's nodes within *universe*."""
        cached_for, positions = self._within
        if cached_for is not universe:
            lookup = {n: i for i, n in enumerate(universe.key)}
            positions = np.array([lookup[n] for n in self.key], dtype=np.int64)
            self._within = (universe, positions)
        return positions


@dataclass
class ProducerBatch:
    """One relation's readings of one sampling cycle, over its whole
    :class:`ProducerSet` (arrays are aligned with the set)."""

    alias: str
    #: which producers send: alive, and their dynamic selection holds
    sends: np.ndarray
    #: the senders' positions in the set, and their node ids (set order)
    senders: np.ndarray
    node_ids: np.ndarray
    #: per attribute the dynamic join clauses read on this side, every
    #: producer's value (senders or not)
    values: Columns


@dataclass
class ProducerBlock:
    """One relation's readings over a block of sampling cycles: ``[cycle,
    producer]`` arrays over its whole :class:`ProducerSet`."""

    alias: str
    #: which producers send in which cycle
    sends: np.ndarray
    #: the set's node ids
    ids: np.ndarray
    #: per join attribute of this side, every producer's value every cycle:
    #: ``[cycle, producer]``, or ``[producer]`` for a static attribute
    values: Columns

    def cycle(self, step: int) -> ProducerBatch:
        """The block's *step*-th cycle as a :class:`ProducerBatch`."""
        sends = self.sends[step]
        senders = sends.nonzero()[0]
        return ProducerBatch(
            alias=self.alias, sends=sends, senders=senders,
            node_ids=self.ids[senders],
            values={a: column[step] if column.ndim == 2 else column
                    for a, column in self.values.items()},
        )


@dataclass
class ExecutionContext:
    """Everything a join strategy needs to run."""

    query: JoinQuery
    analysis: QueryAnalysis
    topology: Topology
    simulator: NetworkSimulator
    data_source: DataSource
    assumed_selectivities: SelectivityProvider
    sizes: MessageSizes = field(default_factory=MessageSizes)
    seed: int = 0
    #: When set (batch-cycle kernel), :meth:`ship` routes through the
    #: batcher instead of calling the simulator per path.
    _batcher: Optional[Any] = field(default=None, repr=False, compare=False)
    #: When set (service mode), the data source is sampled over this set --
    #: the union of every live session's producers, so one engine cycle
    #: samples each physical sensor once -- and this query's producers are
    #: read out of it by position.
    universe: Optional[ProducerSet] = field(default=None, repr=False, compare=False)

    @property
    def base_id(self) -> int:
        return self.topology.base_id

    # -- selectivities -------------------------------------------------------
    def selectivities_for(self, pair: Pair) -> Selectivities:
        provider = self.assumed_selectivities
        if callable(provider):
            return provider(pair)
        return provider

    # -- producer eligibility and sampling ------------------------------------
    def eligible_producers(self, alias: str) -> List[int]:
        """Nodes passing the pre-evaluated static selection clauses for *alias*."""
        eligible_for_alias = self.analysis.static_selection(alias)
        nodes = self.topology.nodes
        eligible = []
        for node_id in self.topology.node_ids:
            node = nodes[node_id]
            if not node.is_base and eligible_for_alias(node.static_attributes):
                eligible.append(node_id)
        return eligible

    def eligible(self) -> Dict[str, List[int]]:
        """Per alias, source first, its :meth:`eligible_producers`."""
        return {alias: self.eligible_producers(alias) for alias in self.query.aliases}

    def static_pairs(self, sources: Sequence[int], targets: Sequence[int]):
        """The statically joining (source, target) pairs of distinct nodes,
        source-major in the given orders, as a read-only ordered set;
        built once per deployment memo for these two producer lists."""
        analysis = self.analysis
        nodes = self.topology.nodes

        def build():
            joins = analysis.pair_joins_statically
            pairs = {}
            for source in sources:
                source_attrs = nodes[source].static_attributes
                for target in targets:
                    if source != target and joins(
                            source_attrs, nodes[target].static_attributes):
                        pairs[(source, target)] = None
            return pairs.keys()

        key = (self.query.aliases, tuple(analysis.static_join_clauses),
               tuple(sources), tuple(targets))
        return self.topology.routing_cache.memo.get("static_pairs", key, build)

    def _sample_memo(self) -> Optional[Dict[tuple, Any]]:
        """The memo sampling keeps on the data source.

        Data sources are deterministic functions of (seed, node, cycle), so
        what is sampled from one is shared by every strategy run against it
        -- and by every session of a service engine.  Entries are treated as
        immutable by all consumers.
        """
        try:
            memo = self.data_source.__dict__.setdefault("_sample_memo", {})
        except AttributeError:  # exotic data sources without __dict__
            return None
        if len(memo) > _SAMPLE_MEMO_MAX:
            memo.clear()
        return memo

    def sample_producers(
        self, cycles: range, producers: Mapping[str, ProducerSet]
    ) -> List[ProducerBlock]:
        """Per relation, which alive producers send in each of *cycles*.

        A bare context samples each relation's own producers and memoizes
        the finished block, so the strategies of a sweep -- same query, same
        deployment, one after the other -- sample and select once.  Under a
        service engine's :attr:`universe` only the universe's columns are
        shared: each session's block is its own view of them, used once.
        """
        memo = self._sample_memo()
        topology = self.topology
        blocks: List[ProducerBlock] = []
        for alias, members in producers.items():
            key = None
            if memo is not None and self.universe is None:
                # the entry pins the query its key names by id; it holds the
                # topology weakly (a failure run's copy dies with the run),
                # and a dead or different referent is a miss
                key = (id(self.query), alias, members.key, cycles.start,
                       cycles.stop, id(topology), topology.routing_epoch)
                hit = memo.get(key)
                if hit is not None and hit[2]() is topology:
                    blocks.append(hit[0])
                    continue
            block = self._sample_relation(alias, members, cycles, memo)
            if key is not None:
                memo[key] = (block, self.query, weakref.ref(topology))
            blocks.append(block)
        return blocks

    def sample_cycle(self, cycle: int, producers: Mapping[str, ProducerSet]
                     ) -> List[ProducerBatch]:
        """:meth:`sample_producers` for the one cycle *cycle*."""
        return [block.cycle(0) for block in
                self.sample_producers(range(cycle, cycle + 1), producers)]

    def _sample_relation(self, alias: str, members: ProducerSet, cycles: range,
                         memo: Optional[Dict[tuple, Any]]) -> ProducerBlock:
        """One relation's block, from the data source's columns.

        A producer's tuple is its static attributes overlaid with the data
        source's dynamic ones; it sends when the relation's dynamic
        selection holds on it.  The selection runs as one array kernel over
        the producers' columns (the scalar closure row by row when it has no
        array form or a column is not numeric), and the batch carries only
        the attributes the dynamic join clauses read.  Liveness is read from
        the topology as it stands, so failure and mobility experiments never
        see stale producers.
        """
        topology = self.topology
        sampled = members if self.universe is None else self.universe
        key = (sampled.key, cycles.start, cycles.stop)
        dynamic = memo.get(key) if memo is not None else None
        if dynamic is None:
            dynamic = _sample_columns(self.data_source, sampled.key, cycles)
            if memo is not None:
                memo[key] = dynamic
        positions = None if sampled is members else members.positions_in(sampled)
        shape = (len(cycles), len(members))
        merged: Columns = {}

        def column(attribute: str) -> np.ndarray:
            """``[cycle, producer]`` (dynamic) or ``[producer]`` (static)."""
            found = merged.get(attribute)
            if found is None:
                found = dynamic.get(attribute)
                if found is None:
                    found = members.static_column(topology, attribute)
                elif positions is not None:
                    found = found[:, positions]
                merged[attribute] = found
            return found

        selection = self.analysis.selection_kernel(alias)
        selected = {a: column(a) for a in selection.attributes}
        if selection.array is not None and all(
            c.dtype != object for c in selected.values()
        ):
            sends = np.asarray(selection.array(selected), dtype=bool)
            if sends.shape != shape:  # the clauses read no dynamic attribute
                sends = np.broadcast_to(sends, shape)
        else:
            rows = {a: np.broadcast_to(c, shape).ravel() for a, c in selected.items()}
            sends = np.fromiter(
                (bool(selection.scalar(row))
                 for row in row_dicts(rows, shape[0] * shape[1])),
                dtype=bool, count=shape[0] * shape[1],
            ).reshape(shape)
        alive = topology.routing_cache.alive_set
        if len(alive) != len(topology.nodes):
            sends = sends & members.alive_mask(topology, alive)
        join = self.analysis.join_kernel()
        attributes = (join.source_attributes if alias == self.query.source.alias
                      else join.target_attributes)
        return ProducerBlock(
            alias=alias,
            sends=sends,
            ids=members.ids,
            values={a: column(a) for a in attributes},
        )

    # -- traffic helpers -------------------------------------------------------
    def data_tuple_size(self) -> int:
        return self.sizes.data_tuple(num_attributes=1)

    def result_tuple_size(self) -> int:
        return self.sizes.result_tuple(num_attributes=self.query.result_width())

    def ship(
        self,
        path: Sequence[int],
        size_bytes: int,
        kind: MessageKind = MessageKind.DATA,
    ) -> bool:
        """Send a message along a path (instant accounting); a one-node path
        sends nothing and is delivered."""
        if self._batcher is not None:
            return self._batcher.ship(path, size_bytes, kind)
        # transfer() never stores or mutates the path, so shipping avoids a
        # defensive copy per call.
        return self.simulator.transfer(path, size_bytes, kind)

    def ship_edges(self, senders: np.ndarray, receivers: np.ndarray,
                   sizes, kind: MessageKind) -> None:
        """Send one single-hop message per (sender, receiver) edge, in array
        order, *sizes* bytes each (one size, or an array aligned with the
        edges): one ``ship_edges`` call on a captured batcher, otherwise
        edge by edge through :meth:`ship`."""
        batcher = self._batcher
        if batcher is not None and hasattr(batcher, "ship_edges"):
            batcher.ship_edges(senders, receivers, sizes, kind)
            return
        sizes = (sizes.tolist() if isinstance(sizes, np.ndarray)
                 else [sizes] * senders.size)
        for sender, receiver, size in zip(senders.tolist(), receivers.tolist(), sizes):
            self.ship((sender, receiver), size, kind)

    def ship_paths(self, messages: PathMessages) -> None:
        """Send every message of *messages*, in order: one ``ship_paths``
        call on a captured batcher over perfect links, otherwise message by
        message through :meth:`ship` (whose delivery draws follow ship
        order)."""
        batcher = self._batcher
        if isinstance(batcher, CycleBatcher) and batcher.lossless:
            batcher.ship_paths(messages)
            return
        for path, size, kind in messages.each():
            self.ship(path, size, kind)

    @contextmanager
    def captured_shipping(self, batcher):
        """Route every :meth:`ship` inside the block through *batcher*.

        The batcher answers delivery verdicts immediately (drawing link
        outcomes in the same RNG order as per-path transfers would) but
        defers all metric charges until its ``flush()``.
        """
        previous = self._batcher
        self._batcher = batcher
        try:
            yield batcher
        finally:
            self._batcher = previous


@dataclass
class ExecutionReport:
    """The metrics the paper's figures are built from."""

    query_name: str
    algorithm: str
    cycles: int
    total_traffic: float
    initiation_traffic: float
    computation_traffic: float
    base_traffic: float
    max_node_load: float
    results_produced: int
    results_delivered: int
    average_result_delay_cycles: float
    average_result_path_hops: float
    messages_dropped: int
    top_loaded_nodes: List[Tuple[int, float]] = field(default_factory=list)
    traffic_by_kind: Dict[str, float] = field(default_factory=dict)
    reoptimizations: int = 0
    join_nodes_used: int = 0
    storage_tuples_peak: int = 0
    extra: Dict[str, float] = field(default_factory=dict)
    #: Per-node series from instrumentation sinks, keyed ``sink.series``
    #: (e.g. ``energy.energy_uj``); persisted into the result store's
    #: metrics table.  Empty unless the run enabled metric sinks.
    node_series: Dict[str, Dict[int, float]] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Flat dictionary used by the experiment harness and benches."""
        return {
            "query": self.query_name,
            "algorithm": self.algorithm,
            "cycles": self.cycles,
            "total_traffic": self.total_traffic,
            "initiation_traffic": self.initiation_traffic,
            "computation_traffic": self.computation_traffic,
            "base_traffic": self.base_traffic,
            "max_node_load": self.max_node_load,
            "results_produced": self.results_produced,
            "results_delivered": self.results_delivered,
            "average_result_delay_cycles": self.average_result_delay_cycles,
            "average_result_path_hops": self.average_result_path_hops,
            "messages_dropped": self.messages_dropped,
            "reoptimizations": self.reoptimizations,
            "join_nodes_used": self.join_nodes_used,
            "storage_tuples_peak": self.storage_tuples_peak,
            **self.extra,
        }


@dataclass
class ResultAccounting:
    """Counters every strategy updates while producing join results."""

    produced: int = 0
    delivered: int = 0
    total_delay_cycles: int = 0
    total_path_hops: int = 0

    def record_many(self, count: int, delivered: bool, delay_cycles: int = 0,
                    path_hops: int = 0) -> None:
        """*count* results that travelled together: one verdict, *path_hops*
        each, *delay_cycles* in total."""
        self.produced += count
        if delivered:
            self.delivered += count
            self.total_delay_cycles += delay_cycles
            self.total_path_hops += path_hops * count

    def record_block(self, produced: int, delivered: int,
                     path_hops: int) -> None:
        """A block of cycles' results at once: the sums the block's
        :meth:`record_many` calls would have added (delivered results carry
        no delay and *path_hops* hops in total)."""
        self.produced += produced
        self.delivered += delivered
        self.total_path_hops += path_hops

    @property
    def average_delay(self) -> float:
        return self.total_delay_cycles / self.delivered if self.delivered else 0.0

    @property
    def average_path_hops(self) -> float:
        return self.total_path_hops / self.delivered if self.delivered else 0.0


class RowIndex:
    """Which window rows each producer of one relation feeds.

    A compressed-row layout over the relation's :class:`ProducerSet`: entry
    ``e`` says producer ``owner[e]`` (a set position) feeds window row
    ``rows[e]``; entries are grouped by producer in set order and, within a
    producer, in the order the strategy visits its pairs.
    """

    def __init__(self, rows_of: Sequence[Sequence[int]]) -> None:
        self.lengths = np.array([len(rows) for rows in rows_of], dtype=np.int64)
        self.owner = np.repeat(np.arange(len(rows_of)), self.lengths)
        self.rows = np.array(
            [row for rows in rows_of for row in rows], dtype=np.int64
        )

    def bounds(self, senders: np.ndarray) -> List[int]:
        """Offsets such that, among the entries of *senders* (set positions,
        ascending), sender ``k`` owns ``[bounds[k], bounds[k + 1])``."""
        return [0] + np.cumsum(self.lengths[senders]).tolist()


class Arrivals(NamedTuple):
    """One relation's tuples of one cycle, laid out per window row: sender
    after sender in set order, each sender's rows in visiting order."""

    rows: np.ndarray        # the window row each arriving tuple probes
    owner: np.ndarray       # its sender, as a position in the producer set
    values: Columns         # the tuples' join attributes, aligned with rows
    counts: np.ndarray      # join results each would produce on arrival


class JoinStrategy(ABC):
    """Base class for all join algorithms."""

    name: str = "abstract"
    #: the pairwise placement plan of a strategy that places each pair's join
    plan: Optional[JoinPlan] = None
    #: pair placements adaptive learning changed
    reoptimizations: int = 0

    def __init__(self) -> None:
        self.results = ResultAccounting()
        #: the strategy's pair windows; opened once its pairs are known
        self.windows: Optional[WindowStore] = None
        #: per relation alias, the producers the strategy samples each cycle
        self.producers: Dict[str, ProducerSet] = {}
        self.storage_peak = 0

    # -- lifecycle -------------------------------------------------------------
    @abstractmethod
    def initiate(self, ctx: ExecutionContext) -> None:
        """Pre-computation: exploration, placement, nominations."""

    @abstractmethod
    def execute_cycle(self, ctx: ExecutionContext, cycle: int) -> None:
        """Run one sampling cycle: sample, ship, join, forward results."""

    @abstractmethod
    def execute_cycle_batch(self, ctx: ExecutionContext, cycles: range,
                            batcher) -> None:
        """Run a block of sampling cycles with charges batched through
        *batcher*.

        Every metric charge is deferred to the one array-level pipeline
        event the executor's ``batcher.flush()`` emits for the block.  On
        perfect links the block -- one cycle or many, as the executor's
        block rule decides -- is one array pass: sample a ``[cycle,
        producer]`` block, band-join it over the cycle axis
        (:meth:`~repro.query.window.WindowStore.join_block`), and charge
        each precomputed route (:class:`~repro.network.batch.RouteHops`) by
        how many messages it carried.  On lossy links the block is one
        cycle, and delivery verdicts equal :meth:`execute_cycle`'s (same RNG
        draw order): strategies ship their wide same-shape fan-outs with
        ``batcher.ship_many`` / ``ship_edges`` and route the rest through it
        with :meth:`ExecutionContext.captured_shipping`.
        """

    def block_end(self, cycle: int, end: int) -> int:
        """Where a block starting at *cycle* must end at the latest (at most
        *end*): the first cycle the strategy needs to start afresh, because
        what it does there depends on what the cycles before it did."""
        return end

    def handle_failures(self, ctx: ExecutionContext, failed: List[int], cycle: int) -> None:
        """React to permanent node failures (default: nothing to do)."""

    @property
    def group_optimizes(self) -> bool:
        """True for a strategy that runs GROUPOPT over a pairwise plan."""
        return False

    def rebuild_delivery(self, ctx: ExecutionContext) -> None:
        """Rebuild what ships producers' tuples from :attr:`plan` after its
        decisions changed from outside (default: nothing to rebuild)."""

    # -- shared helpers ---------------------------------------------------------
    def _open_windows(self, ctx: ExecutionContext, pairs: Sequence[Pair],
                      keep_recent: bool = False) -> WindowStore:
        """Allocate the window rows of *pairs* (row = position in *pairs*)."""
        self.windows = WindowStore(
            pairs, ctx.query.window_size, ctx.analysis.join_kernel(),
            keep_recent=keep_recent,
        )
        return self.windows

    def _row_index(self, alias: str,
                   pairs_of: Mapping[int, Sequence[Pair]]) -> RowIndex:
        """The :class:`RowIndex` of relation *alias* given each producer
        node's pairs."""
        row_of = self.windows.row_of
        return RowIndex([
            [row_of[pair] for pair in pairs_of.get(node_id, ())]
            for node_id in self.producers[alias].key
        ])

    def _arrivals(self, batch: ProducerBatch, index: RowIndex,
                  from_source: bool) -> Arrivals:
        """Fan a relation's batch out to its window rows and probe them.

        Nothing is buffered: the strategy ships, then inserts the tuples
        that got through, so every result count a ship is conditioned on is
        known before the first ship of the relation.
        """
        entries = batch.sends[index.owner].nonzero()[0]
        rows, owner = index.rows[entries], index.owner[entries]
        values = {a: column[owner] for a, column in batch.values.items()}
        counts = self.windows.match(from_source, rows, values).sum(axis=1)
        return Arrivals(rows, owner, values, counts)

    def _block_arrivals(self, block: ProducerBlock, index: RowIndex,
                        delivered: Optional[np.ndarray]
                        ) -> Tuple[BlockArrivals, np.ndarray]:
        """Fan a relation's block out to its window rows, cycle by cycle:
        its :class:`~repro.query.window.BlockArrivals` and, per arrival, its
        *index* entry.  *delivered* says per entry whether its tuples reach
        the row's join (``None``: all do)."""
        steps, entries = block.sends[:, index.owner].nonzero()
        owner = index.owner[entries]
        return BlockArrivals(
            steps=steps,
            rows=index.rows[entries],
            values={a: column[steps, owner] if column.ndim == 2 else column[owner]
                    for a, column in block.values.items()},
            inserted=None if delivered is None else delivered[entries],
        ), entries

    def _track_storage(self) -> None:
        if self.windows is not None and self.windows.total > self.storage_peak:
            self.storage_peak = self.windows.total

    def _track_block_storage(self, totals: np.ndarray) -> None:
        """Fold a block's per-cycle ``total`` trajectory into the peak."""
        self.storage_peak = max(self.storage_peak, int(totals.max()))

    def release(self) -> None:
        """Drop everything a finished query held -- windows, plan, routing
        and delivery structures -- but the facts it still reports."""
        kept = ("name", "results", "storage_peak", "reoptimizations")
        self.__dict__ = {k: v for k, v in self.__dict__.items() if k in kept}

    def join_nodes_used(self) -> int:
        return 0
