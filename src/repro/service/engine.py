"""The in-process service engine: admission, stepping, live events.

:class:`ServiceEngine` is the daemon's brain, fully usable without any
sockets (the churn run kind and the tests drive it directly).  It owns one
substrate via :class:`~repro.joins.stepping.SharedSubstrateEngine` and adds
the query-service surface on top: StreamSQL admission, cancellation,
status/stats reporting, and live failure/mobility/drift events expressed as
:class:`~repro.engine.spec.PhaseSpec` fragments so the service path reuses
exactly the machinery of the batch phase runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.cost_model import Selectivities
from repro.engine.registry import make_query, make_strategy
from repro.engine.spec import PhaseSpec
from repro.joins.stepping import SharedSubstrateEngine
from repro.network.topology import Topology
from repro.network.traffic import TrafficAccounting
from repro.query.parser import QueryParseError, parse_query
from repro.query.query import JoinQuery
from repro.workloads.datasource import SyntheticDataSource


@dataclass
class ServiceConfig:
    """Substrate and workload knobs for one service instance."""

    preset: str = "moderate"
    num_nodes: Optional[int] = None
    topology_seed: int = 0
    seed: int = 0
    #: Physical per-node send probability (every node is a potential
    #: producer; queries carve S/T roles out of the shared sensor field).
    send_probability: float = 0.5
    sigma_st: float = 0.2
    #: Assumed selectivities handed to strategies at admission.
    assumed: Selectivities = field(
        default_factory=lambda: Selectivities(0.5, 0.5, 0.2)
    )
    accounting: str = "bytes"
    share_shipments: bool = True
    default_algorithm: str = "base"


class ServiceEngine:
    """Admits, runs and cancels queries on one long-lived substrate."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        topology: Optional[Topology] = None,
        data_source: Optional[SyntheticDataSource] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        if topology is None:
            from repro.engine.workload import build_topology

            topology = build_topology(
                None,
                preset=self.config.preset,
                seed=self.config.topology_seed,
                num_nodes=self.config.num_nodes,
                fresh=True,
            )
        if data_source is None:
            data_source = SyntheticDataSource(
                sigma_st=self.config.sigma_st,
                send_probability=self.config.send_probability,
                seed=self.config.seed,
            )
        self.data_source = data_source
        self.shared = SharedSubstrateEngine(
            topology,
            data_source,
            self.config.assumed,
            accounting=TrafficAccounting(self.config.accounting),
            seed=self.config.seed,
            share_shipments=self.config.share_shipments,
        )
        self.admitted = 0
        self.cancelled = 0
        self.peak_concurrency = 0
        self.events_applied = 0

    @property
    def topology(self) -> Topology:
        return self.shared.topology

    @property
    def cycle(self) -> int:
        return self.shared.cycle

    # -- admission ------------------------------------------------------------
    def _build_query(
        self,
        sql: Optional[str],
        name: Optional[str],
        window_size: Optional[int],
    ) -> JoinQuery:
        if sql:
            return parse_query(sql, name=name or "adhoc")
        if name:
            kwargs: Dict[str, Any] = {}
            if window_size is not None:
                kwargs["window_size"] = window_size
            if name == "query0":
                kwargs.setdefault("num_nodes", len(self.topology.nodes))
                kwargs.setdefault("seed", self.config.seed)
            return make_query(name, **kwargs)
        raise QueryParseError("submit needs either sql or a registered query name")

    def submit(
        self,
        sql: Optional[str] = None,
        name: Optional[str] = None,
        algorithm: Optional[str] = None,
        window_size: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Parse, admit and initiate one query; returns its session facts."""
        algorithm = algorithm or self.config.default_algorithm
        query = self._build_query(sql, name, window_size)
        strategy = make_strategy(algorithm)
        session = self.shared.attach(query, strategy)
        self.admitted += 1
        self.peak_concurrency = max(
            self.peak_concurrency, self.shared.active_count
        )
        return {
            "query_id": session.query_id,
            "name": session.name,
            "algorithm": algorithm,
            "cycle": self.cycle,
            "initiation_traffic": session.initiation_traffic,
        }

    def cancel(self, query_id: int) -> Dict[str, Any]:
        session = self.shared.detach(int(query_id))
        self.cancelled += 1
        return {
            "query_id": session.query_id,
            "name": session.name,
            "cancelled_at_cycle": self.cycle,
            "results_delivered": session.strategy.results.delivered,
        }

    def query_status(self, query_id: int) -> Dict[str, Any]:
        session = self.shared.session(int(query_id))
        if session is None:
            raise KeyError(f"unknown query {query_id!r}")
        return session.describe()

    # -- stepping -------------------------------------------------------------
    def step(self, cycles: int = 1) -> Dict[str, Any]:
        for _ in range(max(0, int(cycles))):
            self.shared.step_cycle()
        return {"cycle": self.cycle}

    # -- live events through the PhaseSpec machinery ---------------------------
    def apply_event(self, event: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one live failure/mobility/drift event at the next boundary.

        Events use the PhaseSpec vocabulary (``failures`` / ``moves`` /
        ``data``), so anything a scenario phase can express can also be sent
        to a running service.
        """
        kind = event.get("type")
        if kind == "fail":
            node = int(event["node"])
            at = self.cycle + int(event.get("in_cycles", 0))
            self.shared.failure_injector.schedule(node, at)
            detail = {"node": node, "at_cycle": at}
        elif kind == "move":
            from repro.engine.execution import _apply_phase_moves

            phase = PhaseSpec(
                name="live-move",
                cycles=1,  # unused: only the move fragment is applied
                moves=(
                    {
                        key: value
                        for key, value in event.items()
                        if key in ("node", "radius")
                    },
                ),
            )
            moved = _apply_phase_moves(phase, self.topology)
            detail = {"moved": moved}
        elif kind == "drift":
            switched = SyntheticDataSource(
                sigma_st=float(
                    event.get("sigma_st", self.data_source.sigma_st)
                ),
                send_probability=float(
                    event.get(
                        "send_probability", self.data_source.send_probability
                    )
                ),
                seed=self.data_source.seed + 1,
                per_node_send_probability=dict(
                    self.data_source.per_node_send_probability
                ),
            )
            self.data_source.switch_cycle = self.cycle
            self.data_source.switched = switched
            detail = {
                "switch_cycle": self.cycle,
                "sigma_st": switched.sigma_st,
                "send_probability": switched.send_probability,
            }
        else:
            raise ValueError(f"unknown event type {kind!r}")
        self.events_applied += 1
        return {"event": kind, **detail}

    # -- reporting ------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        return {
            "cycle": self.cycle,
            "num_nodes": len(self.topology.nodes),
            "active_queries": self.shared.active_count,
            "queries": [s.describe() for s in self.shared.sessions()],
        }

    def stats(self) -> Dict[str, Any]:
        summary = self.shared.stats()
        summary.update(
            {
                "admitted": self.admitted,
                "cancelled": self.cancelled,
                "peak_concurrency": self.peak_concurrency,
                "events_applied": self.events_applied,
            }
        )
        return summary

    def reopt_summary(self) -> Dict[str, float]:
        return self.shared.reopt_latency.summary()
