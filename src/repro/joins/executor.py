"""The join execution engine.

A :class:`JoinExecutor` wires a query, a topology, a data source and a join
strategy into the network simulator and runs the query for a number of
sampling cycles, producing the :class:`~repro.joins.base.ExecutionReport`
metrics the paper's figures plot: total traffic, traffic at the base station,
per-node load, results produced/delivered, result delay and drops.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.joins.base import (
    DataSource,
    ExecutionContext,
    ExecutionReport,
    JoinStrategy,
    SelectivityProvider,
)
from repro.metrics.pipeline import bound_node_series
from repro.network.batch import CycleBatcher
from repro.network.failures import FailureInjector
from repro.network.links import LinkModel
from repro.network.message import MessageSizes
from repro.network.simulator import NetworkSimulator
from repro.network.topology import Topology
from repro.network.traffic import TrafficAccounting
from repro.query.analysis import analyze_query
from repro.query.query import JoinQuery

#: Reports for topologies at or above this node count bound their per-node
#: series automatically (scale-ladder runs; paper-scale reports never hit it).
AUTO_SERIES_CAP_NODES = 10_000
#: Entries each series keeps when auto-bounded.
AUTO_SERIES_CAP = 1024
#: Bound on a block's cells -- cycles times the larger of the strategy's
#: window rows and producers -- so a block's arrays stay small at any scale.
BLOCK_CELLS = 1 << 16


class JoinExecutor:
    """Runs one join strategy over a query on a simulated network."""

    def __init__(
        self,
        query: JoinQuery,
        topology: Topology,
        data_source: DataSource,
        strategy: JoinStrategy,
        assumed_selectivities: SelectivityProvider,
        link_model: Optional[LinkModel] = None,
        accounting: TrafficAccounting = TrafficAccounting.BYTES,
        sizes: Optional[MessageSizes] = None,
        failure_injector: Optional[FailureInjector] = None,
        seed: int = 0,
        sinks: Optional[Sequence] = None,
        node_series_cap: Optional[int] = None,
    ) -> None:
        self.query = query
        self.topology = topology
        self.strategy = strategy
        self.failure_injector = failure_injector or FailureInjector()
        self.simulator = NetworkSimulator(
            topology,
            link_model=link_model,
            accounting=accounting,
            sizes=sizes,
            sinks=sinks,
        )
        self.context = ExecutionContext(
            query=query,
            analysis=analyze_query(query),
            topology=topology,
            simulator=self.simulator,
            data_source=data_source,
            assumed_selectivities=assumed_selectivities,
            sizes=self.simulator.sizes,
            seed=seed,
        )
        self._initiated = False
        self._initiation_traffic = 0.0
        self.node_series_cap = node_series_cap
        self._batcher = CycleBatcher(self.simulator)

    # ------------------------------------------------------------------
    def initiate(self) -> float:
        """Run the strategy's initiation phase; returns its traffic.

        On the kernel every control message ships through the batcher in
        ship order (lossy verdicts draw as per-path transfers would) and the
        phase is charged by one flush; off it, one ``transfer`` each.
        """
        if self._initiated:
            return self._initiation_traffic
        before = self.simulator.stats.total()
        batcher = self._cycle_batcher()
        if batcher is None:
            self.strategy.initiate(self.context)
        else:
            with self.context.captured_shipping(batcher):
                self.strategy.initiate(self.context)
            batcher.flush()
        self._initiation_traffic = self.simulator.stats.total() - before
        self._initiated = True
        return self._initiation_traffic

    def run(self, cycles: int) -> ExecutionReport:
        """Execute *cycles* sampling cycles (initiating first if needed)."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self.run_cycles(0, cycles)
        return self.report(cycles)

    def run_cycles(self, start_cycle: int, cycles: int) -> None:
        """Execute sampling cycles [start_cycle, start_cycle + cycles).

        The incremental entry point behind multi-phase runs: calling this
        for consecutive ranges is identical to one :meth:`run` over the
        whole span (there is no per-call state beyond the simulated one), so
        phased executions can snapshot traffic between ranges.  The range is
        stepped in blocks, each as long as :meth:`_block_length` allows.
        """
        self.initiate()
        cycle, end = start_cycle, start_cycle + cycles
        while cycle < end:
            length = self._block_length(cycle, end)
            self.step_cycle(cycle, length)
            cycle += length

    def step_cycle(self, cycle: int, cycles: int = 1) -> None:
        """Execute the block of *cycles* sampling cycles from *cycle* (the
        stepping-engine core).

        ``run``/``run_cycles`` are thin loops over this method, one call per
        block; callers that interleave several executors (or a service loop
        that admits and cancels queries between cycles) drive it one cycle
        at a time.  Failures scheduled for *cycle* apply first.  On the
        batch-cycle kernel the whole block is one
        :meth:`~repro.joins.base.JoinStrategy.execute_cycle_batch` and one
        ``flush``; the simulator then ticks once per cycle.  A block longer
        than one cycle must satisfy the block rule of :meth:`_block_length`.
        Initiation is idempotent, so stepping is safe from any entry point.
        """
        self.initiate()
        failed = self.failure_injector.apply(self.topology, cycle)
        if failed:
            self.strategy.handle_failures(self.context, failed, cycle)
        batcher = self._cycle_batcher()
        if batcher is None:
            self.strategy.execute_cycle(self.context, cycle)
        else:
            self.strategy.execute_cycle_batch(
                self.context, range(cycle, cycle + cycles), batcher)
            batcher.flush()
        for _ in range(cycles):
            self.simulator.advance_sampling_cycle()

    def _block_length(self, cycle: int, end: int) -> int:
        """How many cycles from *cycle* (up to *end*) run as one block.

        A block is a stretch in which nothing can change routes, placement
        or delivery verdicts, so its cycles sample, join and charge in one
        array pass.  One cycle when the cycle is off the kernel (a dead
        node), on lossy links (verdicts are drawn per ship, in ship order),
        or when a sink besides the traffic stats listens (the energy sink
        checks lifetimes at every cycle tick).  Otherwise the
        block runs to the first boundary: *end* (a phase end or a move), the
        next failure event, the data source's next switch of regime (at any
        depth of a phase schedule's chain), a cycle the strategy must start
        afresh (:meth:`~repro.joins.base.JoinStrategy.block_end`), or the
        :data:`BLOCK_CELLS` bound.
        """
        batcher = self._cycle_batcher()
        if (batcher is None or not batcher.lossless
                or len(self.simulator.pipeline.sinks) > 1
                or self.failure_injector.failures_at(cycle)):
            return 1
        for event in self.failure_injector.events:
            if cycle < event.sampling_cycle < end:
                end = event.sampling_cycle
        next_switch = getattr(self.context.data_source, "next_switch", None)
        switch = next_switch(cycle) if next_switch is not None else None
        if switch is not None and switch < end:
            end = switch
        strategy = self.strategy
        end = strategy.block_end(cycle, end)
        cells = max(len(strategy.windows or ()),
                    sum(len(members) for members in strategy.producers.values()), 1)
        return max(1, min(end - cycle, BLOCK_CELLS // cells))

    def _cycle_batcher(self) -> Optional[CycleBatcher]:
        """The batch-cycle kernel for this cycle, or ``None`` for per-tuple.

        Decided afresh every cycle: the kernel runs unless a node is dead,
        the case only the per-hop
        :meth:`~repro.network.simulator.NetworkSimulator.transfer` walk
        models.  Failures are permanent, so a run leaves the kernel from its
        first failure cycle on; a move with every node alive stays on it.
        """
        return self._batcher if self.simulator.all_alive() else None

    # ------------------------------------------------------------------
    def report(self, cycles: int) -> ExecutionReport:
        stats = self.simulator.stats
        total = stats.total()
        results = self.strategy.results
        reoptimizations = getattr(self.strategy, "reoptimizations", 0)
        # Instrumentation-sink results: scalar summaries land in ``extra``
        # and per-node series in ``node_series``; both are empty (preserving
        # the historical report exactly) unless extra sinks were registered.
        pipeline = self.simulator.pipeline
        extra = pipeline.summaries()
        node_series = pipeline.node_series()
        cap = self.node_series_cap
        if cap is None and len(self.topology.nodes) >= AUTO_SERIES_CAP_NODES:
            cap = AUTO_SERIES_CAP
        if cap is not None and node_series:
            bounded_series = {}
            for name, values in node_series.items():
                bounded, summary = bound_node_series(values, cap)
                bounded_series[name] = bounded
                if summary is not None:
                    for stat, value in summary.items():
                        extra[f"{name}.{stat}"] = value
            node_series = bounded_series
        return ExecutionReport(
            query_name=self.query.name,
            algorithm=self.strategy.name,
            cycles=cycles,
            total_traffic=total,
            initiation_traffic=self._initiation_traffic,
            computation_traffic=total - self._initiation_traffic,
            base_traffic=stats.at_base(self.topology.base_id),
            max_node_load=stats.max_node_load(),
            results_produced=results.produced,
            results_delivered=results.delivered,
            average_result_delay_cycles=results.average_delay,
            average_result_path_hops=results.average_path_hops,
            messages_dropped=stats.messages_dropped,
            top_loaded_nodes=stats.top_loaded_nodes(k=15),
            traffic_by_kind={
                kind.value: units for kind, units in stats.traffic_by_kind().items()
            },
            reoptimizations=reoptimizations,
            join_nodes_used=self.strategy.join_nodes_used(),
            storage_tuples_peak=self.strategy.storage_peak,
            extra=extra,
            node_series=node_series,
        )
