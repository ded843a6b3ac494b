"""Concurrent multi-query service mode.

A long-running daemon owns one substrate, admits
StreamSQL queries over a JSON-line protocol, runs every admitted query's
join strategy on the shared simulator, and keeps the multi-query group
optimizer (GROUPOPT, Section 5.2) incrementally up to date as queries
arrive and depart.

Layers
------
:class:`~repro.service.engine.ServiceEngine`
    In-process admission surface: submit/cancel/status/stats/step plus live
    failure/mobility/drift events, built on
    :class:`~repro.joins.stepping.SharedSubstrateEngine`.
:mod:`repro.service.churn`
    Deterministic seeded query-churn traces (no wall clock) and the
    parameterized query pool they draw from.
:mod:`repro.service.runkind`
    The ``service`` run kind: replays a churn trace against the shared
    engine (or against independent per-query executors for the baseline)
    inside the frozen RunSpec / sweep / store machinery.
:mod:`repro.service.daemon` / :mod:`repro.service.client` / :mod:`repro.service.cli`
    The TCP daemon, its client, and the ``python -m repro.service``
    command-line interface (``serve`` / ``submit`` / ``cancel`` /
    ``status`` / ``stats`` / ``step`` / ``event`` / ``shutdown``).
"""

from repro.service.churn import ChurnEvent, build_churn_trace, churn_query
from repro.service.engine import ServiceConfig, ServiceEngine

__all__ = [
    "ChurnEvent",
    "ServiceConfig",
    "ServiceEngine",
    "build_churn_trace",
    "churn_query",
]
