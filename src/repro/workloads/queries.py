"""The query workload of Table 2.

Each builder returns a ready-to-run :class:`~repro.query.query.JoinQuery`
produced by the StreamSQL parser, mirroring Table 2:

* **Query 0** -- 1:1 join with random endpoints: a single random S node and a
  single random T node join on the dynamic attribute ``u``.
* **Query 1** -- non-1:1 join with uniformly distributed endpoints
  (``S.id < 25``, ``T.id > 50``, static clause ``S.x = T.y + 5``).
* **Query 2** -- m:n join at the perimeter (based on Query P): row 0 joins
  row 3 on the column id and ``id % 4``.
* **Query 3** -- region-based join on real-life data (based on Query R):
  pairs within 5 m whose humidity readings differ by more than 1000.

Producer rates (sigma_s / sigma_t) are controlled by the data source through
the fixed dynamic selection ``adc0 < 500`` (see
:mod:`repro.workloads.datasource`); the paper's literal ``hash(u)`` filters
are kept in :data:`PAPER_QUERY_SQL` for reference and parser coverage.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.query.parser import parse_query
from repro.query.query import JoinQuery
from repro.workloads.datasource import SEND_THRESHOLD

#: Verbatim Table 2 / Appendix B style query text (with hash-based producer
#: filters), used for documentation, examples and parser tests.
PAPER_QUERY_SQL: Dict[str, str] = {
    "query0": (
        "SELECT S.id, T.id, S.localtime FROM S, T [windowsize=3 sampleinterval=100] "
        "WHERE S.id = 17 AND hash(S.u) % 2 = 0 "
        "AND T.id = 42 AND hash(T.u) % 2 = 0 AND S.u = T.u"
    ),
    "query1": (
        "SELECT S.id, T.id, S.localtime FROM S, T [windowsize=3 sampleinterval=100] "
        "WHERE S.id < 25 AND hash(S.u) % 2 = 0 "
        "AND T.id > 50 AND hash(T.u) % 2 = 0 "
        "AND S.x = T.y + 5 AND S.u = T.u"
    ),
    "query2": (
        "SELECT S.id, T.id FROM S, T [windowsize=1 sampleinterval=100] "
        "WHERE S.rid = 0 AND hash(S.u) % 2 = 0 "
        "AND T.rid = 3 AND hash(T.u) % 2 = 0 "
        "AND S.cid = T.cid AND S.id % 4 = T.id % 4 AND S.u = T.u"
    ),
    "query3": (
        "SELECT S.id, T.id, S.v, T.v FROM S, T [windowsize=1 sampleinterval=100] "
        "WHERE dist(S.pos, T.pos) < 5 AND S.id < T.id AND abs(S.v - T.v) > 1000"
    ),
}

_SEND_FILTER = f"S.adc0 < {SEND_THRESHOLD} AND T.adc0 < {SEND_THRESHOLD}"


def build_query0(
    source_id: Optional[int] = None,
    target_id: Optional[int] = None,
    num_nodes: int = 100,
    window_size: int = 3,
    seed: int = 0,
) -> JoinQuery:
    """Query 0: a 1:1 join between one random S node and one random T node."""
    if source_id is None or target_id is None:
        rng = np.random.default_rng(seed)
        picks = rng.choice(np.arange(1, num_nodes), size=2, replace=False)
        source_id = int(picks[0]) if source_id is None else source_id
        target_id = int(picks[1]) if target_id is None else target_id
    if source_id == target_id:
        raise ValueError("Query 0 needs two distinct endpoints")
    text = (
        f"SELECT S.id, T.id FROM S, T [windowsize={window_size} sampleinterval=100] "
        f"WHERE S.id = {source_id} AND T.id = {target_id} "
        f"AND {_SEND_FILTER} AND S.u = T.u"
    )
    return parse_query(text, name="query0")


def build_query0_keyed(
    source_id: Optional[int] = None,
    target_id: Optional[int] = None,
    num_nodes: int = 100,
    window_size: int = 3,
    seed: int = 0,
) -> JoinQuery:
    """Query 0 with a routable static join key (for the GHT/DHT strategies).

    Same random-endpoint 1:1 join as :func:`build_query0`, plus the static
    clause ``S.id = T.id + d`` (the Query 1 shape) chosen so the drawn
    endpoints satisfy it.  Every strategy in the roster -- including the
    hash-based ones, which refuse queries without a routable static join
    predicate -- can run this query, which is what the strategy-crossover
    scale sweeps need.
    """
    if source_id is None or target_id is None:
        rng = np.random.default_rng(seed)
        picks = rng.choice(np.arange(1, num_nodes), size=2, replace=False)
        source_id = int(picks[0]) if source_id is None else source_id
        target_id = int(picks[1]) if target_id is None else target_id
    if source_id == target_id:
        raise ValueError("Query 0 needs two distinct endpoints")
    if source_id < target_id:
        # The parser wants the literal offset on the right-hand side
        # non-negative, so order the endpoints to keep the difference >= 1.
        source_id, target_id = target_id, source_id
    diff = source_id - target_id
    text = (
        f"SELECT S.id, T.id FROM S, T [windowsize={window_size} sampleinterval=100] "
        f"WHERE S.id = {source_id} AND T.id = {target_id} "
        f"AND {_SEND_FILTER} AND S.id = T.id + {diff} AND S.u = T.u"
    )
    return parse_query(text, name="query0-keyed")


def build_query1(window_size: int = 3) -> JoinQuery:
    """Query 1: non-1:1 join with uniformly spread endpoints."""
    text = (
        f"SELECT S.id, T.id FROM S, T [windowsize={window_size} sampleinterval=100] "
        f"WHERE S.id < 25 AND T.id > 50 AND {_SEND_FILTER} "
        f"AND S.x = T.y + 5 AND S.u = T.u"
    )
    return parse_query(text, name="query1")


def build_query2(window_size: int = 1) -> JoinQuery:
    """Query 2: m:n join at the perimeter (Query P)."""
    text = (
        f"SELECT S.id, T.id FROM S, T [windowsize={window_size} sampleinterval=100] "
        f"WHERE S.rid = 0 AND T.rid = 3 AND {_SEND_FILTER} "
        f"AND S.cid = T.cid AND S.id % 4 = T.id % 4 AND S.u = T.u"
    )
    return parse_query(text, name="query2")


def build_query3(
    radius_m: float = 5.0, difference_threshold: int = 1000, window_size: int = 1
) -> JoinQuery:
    """Query 3: region-based join over the humidity trace (Query R)."""
    text = (
        f"SELECT S.id, T.id, S.v, T.v FROM S, T "
        f"[windowsize={window_size} sampleinterval=100] "
        f"WHERE dist(S.pos, T.pos) < {radius_m} AND S.id < T.id "
        f"AND abs(S.v - T.v) > {difference_threshold}"
    )
    return parse_query(text, name="query3")
