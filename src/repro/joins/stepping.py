"""Shared-substrate stepping engine: many queries, one live network.

The batch executors run one strategy over one private simulator for a fixed
cycle budget.  Service mode inverts that: a single long-lived substrate (one
topology, one :class:`~repro.network.simulator.NetworkSimulator`, one data
source -- the physical sensors) serves a churning population of queries.
:class:`SharedSubstrateEngine` owns the substrate and steps it one sampling
cycle at a time; queries attach and detach at cycle boundaries as
:class:`QuerySession` objects, each pairing a parsed query with its own join
strategy and :class:`~repro.joins.base.ExecutionContext` over the shared
simulator.

Two multi-query effects are modeled on top of plain interleaving:

* **Incremental group reoptimization.**  Strategies that publish a pairwise
  :class:`~repro.core.optimizer.JoinPlan` (the innet family) feed their pairs
  into one engine-wide incremental :class:`~repro.core.group_opt.GroupOptimizer`.
  Attaching or detaching such a query re-derives only the affected groups
  (Algorithm 1 over the delta), charges the cost-report/decision control
  traffic on the shared simulator, rewrites the owning plans' pair tables in
  place, and records the control-plane propagation delay of every
  re-decision in a :class:`~repro.metrics.latency.LatencySink`.  An
  admission's control traffic -- the query's initiation, then the
  re-decisions it causes -- is charged in one batch each.

* **Cross-query shipment sharing.**  Producers are physical sensors: when two
  queries ship the same reading over the same path in the same cycle, the
  radio transmits once.  A per-cycle dedupe plane intercepts
  :meth:`~repro.joins.base.ExecutionContext.ship` (the same hook the
  batch-cycle kernel uses), charges the first copy, replays the delivery
  verdict for duplicates, and accounts the avoided traffic as
  ``shared_savings``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.group_opt import Group, GroupOptimizer, GroupPlacements, Pair
from repro.core.optimizer import representative_selectivities
from repro.core.placement import PairTable
from repro.joins.base import (
    DataSource,
    ExecutionContext,
    JoinStrategy,
    ProducerSet,
    SelectivityProvider,
)
from repro.metrics.latency import LatencySink
from repro.network.batch import CycleBatcher
from repro.network.failures import FailureInjector
from repro.network.message import MessageKind
from repro.network.simulator import NetworkSimulator
from repro.network.topology import Topology
from repro.network.traffic import TrafficAccounting
from repro.query.analysis import analyze_query
from repro.query.query import JoinQuery


@dataclass
class QuerySession:
    """One admitted query's execution state on the shared substrate.

    Once detached, a session keeps what :meth:`describe` reports -- the
    strategy is released (:meth:`~repro.joins.base.JoinStrategy.release`) down
    to its name and result counters and the context is dropped.
    """

    query_id: int
    query: JoinQuery
    strategy: JoinStrategy
    context: Optional[ExecutionContext]
    attached_cycle: int
    detached_cycle: Optional[int] = None
    initiation_traffic: float = 0.0

    @property
    def name(self) -> str:
        return self.query.name

    @property
    def active(self) -> bool:
        return self.detached_cycle is None

    def describe(self) -> Dict[str, object]:
        return {
            "query_id": self.query_id,
            "name": self.name,
            "algorithm": self.strategy.name,
            "attached_cycle": self.attached_cycle,
            "detached_cycle": self.detached_cycle,
            "active": self.active,
            "initiation_traffic": self.initiation_traffic,
            "results_produced": self.strategy.results.produced,
            "results_delivered": self.strategy.results.delivered,
        }


class SharedShipmentPlane:
    """Per-cycle cross-query dedupe of identical DATA shipments.

    Sessions sample the same physical sensors, so two queries shipping the
    same reading along the same path in the same cycle correspond to one
    radio transmission.  The first copy goes to the simulator; duplicates
    replay its delivery verdict and bank the avoided traffic units.
    """

    def __init__(self, simulator: NetworkSimulator) -> None:
        self._simulator = simulator
        self._seen: Dict[Tuple[Tuple[int, ...], int], bool] = {}
        self.saved_units = 0.0
        self.deduped_shipments = 0

    def begin_cycle(self) -> None:
        self._seen.clear()

    def _units(self, path: Sequence[int], size_bytes: int) -> float:
        hops = len(path) - 1
        if self._simulator.stats.accounting is TrafficAccounting.MESSAGES:
            return float(hops)
        return float(hops * size_bytes)

    def ship(self, path: Sequence[int], size_bytes: int, kind: MessageKind) -> bool:
        if kind is not MessageKind.DATA:
            return self._simulator.transfer(path, size_bytes, kind)
        key = (tuple(path), size_bytes)
        verdict = self._seen.get(key)
        if verdict is None:
            verdict = self._simulator.transfer(path, size_bytes, kind)
            self._seen[key] = verdict
            return verdict
        self.saved_units += self._units(path, size_bytes)
        self.deduped_shipments += 1
        return verdict


class SharedSubstrateEngine:
    """Steps one shared substrate under a churning population of queries.

    The substrate has perfect links, unbounded queues, default message sizes
    and no instrumentation sinks; node failures are scheduled on
    :attr:`failure_injector`.
    """

    def __init__(
        self,
        topology: Topology,
        data_source: DataSource,
        assumed_selectivities: SelectivityProvider,
        accounting: TrafficAccounting = TrafficAccounting.BYTES,
        seed: int = 0,
        share_shipments: bool = True,
    ) -> None:
        self.topology = topology
        self.data_source = data_source
        self.assumed_selectivities = assumed_selectivities
        self.failure_injector = FailureInjector()
        self.seed = seed
        self.simulator = NetworkSimulator(topology, accounting=accounting)
        self.cycle = 0
        #: every session ever admitted, and the attached ones; both in
        #: admission order, which is query-id order
        self._sessions: Dict[int, QuerySession] = {}
        self._live: Dict[int, QuerySession] = {}
        #: the union of the live sessions' producers, sampled once per cycle
        #: on behalf of all of them; rebuilt after the population changes
        self._universe: Optional[ProducerSet] = None
        self._next_query_id = 1
        self._share_plane = (
            SharedShipmentPlane(self.simulator) if share_shipments else None
        )
        # Engine-wide incremental GROUPOPT across every plan-bearing session.
        self.group_optimizer = GroupOptimizer(
            hops_to_base=self._hops_to_base,
            route_between=self._route_between,
            sizes=self.simulator.sizes,
        )
        self._pair_owners: Dict[Pair, List[int]] = {}
        #: Control-plane propagation delay of every group re-decision, in
        #: transmission hops (deterministic: a function of routes only).
        self.reopt_latency = LatencySink(key_prefix="reopt_latency")
        self.reoptimizations = 0

    # -- routing helpers over the shared topology ----------------------------
    def _hops_to_base(self, node_id: int) -> int:
        hops = self.topology.hops_between(node_id, self.topology.base_id)
        return hops if hops is not None else len(self.topology.nodes)

    def _route_between(self, a: int, b: int) -> List[int]:
        path = self.topology.routing_cache.path(a, b)
        if path is None:
            return [a, b]
        return list(path)

    # -- admission ------------------------------------------------------------
    def attach(self, query: JoinQuery, strategy: JoinStrategy) -> QuerySession:
        """Admit a query at the current cycle boundary and initiate it."""
        query_id = self._next_query_id
        self._next_query_id += 1
        context = ExecutionContext(
            query=query,
            analysis=analyze_query(query),
            topology=self.topology,
            simulator=self.simulator,
            data_source=self.data_source,
            assumed_selectivities=self.assumed_selectivities,
            sizes=self.simulator.sizes,
            seed=self.seed,
        )
        before = self.simulator.stats.total()
        batcher = self._control_batcher()
        if batcher is None:
            strategy.initiate(context)
        else:
            with context.captured_shipping(batcher):
                strategy.initiate(context)
            batcher.flush()
        session = QuerySession(
            query_id=query_id,
            query=query,
            strategy=strategy,
            context=context,
            attached_cycle=self.cycle,
            initiation_traffic=self.simulator.stats.total() - before,
        )
        self._sessions[query_id] = session
        self._live[query_id] = session
        self._universe = None
        if self._group_optimizes(strategy):
            pairs = strategy.plan.pairs()
            for pair in pairs:
                self._pair_owners.setdefault(pair, []).append(query_id)
            changed = self.group_optimizer.add_query(query_id, pairs)
            adopted = self._adopt_session_decisions(session, changed)
            self._redecide(
                [g for g in changed if g.group_id not in adopted],
                delta_pairs=pairs,
            )
        return session

    def _control_batcher(self) -> Optional[CycleBatcher]:
        """A batcher to charge admission-plane control traffic in one flush,
        or ``None`` (one ``transfer`` per message) while a node is dead."""
        return CycleBatcher(self.simulator) if self.simulator.all_alive() else None

    @staticmethod
    def _group_optimizes(strategy: JoinStrategy) -> bool:
        """True for strategies that run GROUPOPT over a pairwise plan."""
        plan = getattr(strategy, "plan", None)
        variant = getattr(strategy, "variant", None)
        return (
            plan is not None
            and bool(plan.table.pairs)
            and variant is not None
            and getattr(variant, "group_optimization", False)
        )

    def _adopt_session_decisions(
        self, session: QuerySession, changed: List[Group]
    ) -> set:
        """Adopt initiate-time decisions for groups wholly owned by *session*.

        The strategy already ran (and charged) Algorithm 1 for its own groups
        during initiation; re-deciding them here would double-charge the
        control traffic.  Only groups that merged pairs from several queries
        need a fresh engine-level decision.
        """
        by_pairs = {
            frozenset(d.group.pairs): d
            for d in session.strategy.plan.group_decisions
        }
        adopted = set()
        for group in changed:
            owners = {
                qid
                for pair in group.pairs
                for qid in self._pair_owners.get(pair, ())
            }
            if owners != {session.query_id}:
                continue
            decision = by_pairs.get(frozenset(group.pairs))
            if decision is None:
                continue
            self.group_optimizer.adopt(group, decision.use_innet)
            adopted.add(group.group_id)
        return adopted

    def detach(self, query_id: int) -> QuerySession:
        """Cancel a query at the current cycle boundary."""
        session = self._live.pop(query_id, None)
        if session is None:
            raise KeyError(f"no active query {query_id!r}")
        session.detached_cycle = self.cycle
        self._universe = None
        removed_pairs: List[Pair] = []
        if query_id in self.group_optimizer.registered_queries():
            for pair in session.strategy.plan.pairs():
                owners = self._pair_owners.get(pair)
                if owners and query_id in owners:
                    owners.remove(query_id)
                    removed_pairs.append(pair)
                    if not owners:
                        del self._pair_owners[pair]
            changed = self.group_optimizer.remove_query(query_id)
            self._redecide(changed, delta_pairs=removed_pairs)
        session.strategy.release()
        session.context = None
        return session

    def session(self, query_id: int) -> Optional[QuerySession]:
        return self._sessions.get(query_id)

    def sessions(self, active_only: bool = False) -> List[QuerySession]:
        return list((self._live if active_only else self._sessions).values())

    @property
    def active_count(self) -> int:
        return len(self._live)

    # -- cross-query group reoptimization -------------------------------------
    def _redecide(self, changed: List[Group], delta_pairs: Sequence[Pair]) -> None:
        """Run Algorithm 1 for re-derived groups and rewrite owning plans.

        Each pair's placement and selectivities (its current estimate in
        the owner's pair table) are read from its lowest-id owner, and every
        owner's plan takes that placement (or, when the group joins at the
        base, the rewrite to the base with that owner's at-base cost).
        Only producers touched by the churn delta re-report their cost
        difference; the coordinator's broadcast is suppressed when its
        decision did not flip.  The reports and decisions are charged in one
        batch.  Every re-decision's control-plane delay (report hop distance
        plus broadcast hop distance) lands in :attr:`reopt_latency`.
        """
        if not changed:
            return
        batcher = self._control_batcher()
        ship = self.simulator.transfer if batcher is None else batcher.ship
        delta_endpoints = {endpoint for pair in delta_pairs for endpoint in pair}
        for group in changed:
            # per owner its pairs, as positions in group order; each pair is
            # placed by its lowest-id owner
            owned: Dict[int, List[int]] = {}
            placing: Dict[int, List[int]] = {}
            for position, pair in enumerate(group.pairs):
                owner_ids = self._pair_owners.get(pair, ())
                if owner_ids:
                    placing.setdefault(owner_ids[0], []).append(position)
                for qid in owner_ids:
                    owned.setdefault(qid, []).append(position)
            if not owned:
                continue
            owners = [self._sessions[qid] for qid in sorted(owned)]
            placed_at: Dict[int, Tuple[PairTable, int]] = {}
            parts, selectivities = [], []
            for qid in sorted(placing):
                table = self._sessions[qid].strategy.plan.table
                rows = [table.row_of[group.pairs[p]] for p in placing[qid]]
                parts.append(GroupPlacements.of(table, rows))
                for position, row in zip(placing[qid], rows):
                    placed_at[position] = (table, row)
                    selectivities.append(table.assumed[row])
            order = np.argsort(np.concatenate([placing[qid] for qid in sorted(placing)]),
                               kind="stable")
            placements = GroupPlacements(*(np.concatenate(column)[order]
                                           for column in zip(*parts)))
            window = max(owner.query.window_size for owner in owners)
            decision = self.group_optimizer.decide_group(
                group,
                placements,
                representative_selectivities(selectivities),
                window,
                ship=ship,
                report_from=delta_endpoints & group.members,
                previous_decision=self.group_optimizer.previous_use_innet(group),
            )
            self.reoptimizations += 1
            self._record_reopt_latency(group, decision.use_innet)
            for owner in owners:
                table = owner.strategy.plan.table
                mine = owned.get(owner.query_id, ())
                rows = np.array([table.row_of[group.pairs[p]] for p in mine],
                                dtype=np.int64)
                if not decision.use_innet:
                    self.group_optimizer.apply_decision(
                        decision, table, rows,
                        base_cost=[placed_at[p][0].base_cost[placed_at[p][1]]
                                   for p in mine])
                else:
                    for position, row in zip(mine, rows.tolist()):
                        source, source_row = placed_at[position]
                        if source is not table:
                            table.copy_row(row, source, source_row)
                rebuild = getattr(owner.strategy, "_rebuild_delivery", None)
                if rebuild is not None and owner.active:
                    rebuild(owner.context)
        if batcher is not None:
            batcher.flush()

    def _record_reopt_latency(self, group: Group, use_innet: bool) -> None:
        coordinator = group.coordinator
        report_hops = 0
        broadcast_hops = 0
        for member in group.members:
            if member == coordinator:
                continue
            hops = self.topology.hops_between(member, coordinator)
            if hops is None:
                continue
            report_hops = max(report_hops, hops)
            broadcast_hops = max(broadcast_hops, hops)
        latency = report_hops + broadcast_hops
        self.reopt_latency.on_delivery("reopt", float(latency), hops=latency)

    # -- stepping -------------------------------------------------------------
    def step_cycle(self) -> int:
        """Execute one sampling cycle across every attached session."""
        cycle = self.cycle
        failed = self.failure_injector.apply(self.topology, cycle)
        active = list(self._live.values())
        if self._universe is None:
            self._universe = ProducerSet(sorted({
                node_id
                for session in active
                for producers in session.strategy.producers.values()
                for node_id in producers.key
            }))
            for session in active:
                session.context.universe = self._universe
        if failed:
            for session in active:
                session.strategy.handle_failures(session.context, failed, cycle)
        plane = self._share_plane
        if plane is not None:
            plane.begin_cycle()
            for session in active:
                with session.context.captured_shipping(plane):
                    session.strategy.execute_cycle(session.context, cycle)
        else:
            for session in active:
                session.strategy.execute_cycle(session.context, cycle)
        self.simulator.advance_sampling_cycle()
        self.cycle += 1
        return cycle

    # -- reporting ------------------------------------------------------------
    @property
    def shared_savings_units(self) -> float:
        return self._share_plane.saved_units if self._share_plane else 0.0

    @property
    def deduped_shipments(self) -> int:
        return self._share_plane.deduped_shipments if self._share_plane else 0

    def stats(self) -> Dict[str, object]:
        """Substrate-wide counters for status endpoints and reports."""
        stats = self.simulator.stats
        total = stats.total()
        reopt = self.reopt_latency
        summary: Dict[str, object] = {
            "cycle": self.cycle,
            "active_queries": self.active_count,
            "total_queries": len(self._sessions),
            "total_traffic": total,
            "base_traffic": stats.at_base(self.topology.base_id),
            "max_node_load": stats.max_node_load(),
            "shared_savings_units": self.shared_savings_units,
            "deduped_shipments": self.deduped_shipments,
            "independent_traffic_estimate": total + self.shared_savings_units,
            "reoptimizations": self.reoptimizations,
            "reopt_latency_count": reopt.count,
            "reopt_latency_p50": reopt.quantile("p50"),
            "reopt_latency_p95": reopt.quantile("p95"),
            "live_groups": len(self.group_optimizer.groups()),
        }
        return summary
