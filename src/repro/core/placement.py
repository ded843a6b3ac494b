"""Cost-based join-node placement (Sections 3.1-3.2), for every pair at once.

During initiation the target node ``t`` learns, for every candidate path
``P`` from ``s`` to ``t``, each path node's hop distance to the base station.
It evaluates the pairwise cost expression at every node ``j`` on ``P``, also
considers performing the pairwise join at the base station, chooses the
cheapest option and *nominates* the chosen join node, which in turn notifies
``s`` (Section 3.2).

A query's pairs and their candidate routes are one :class:`CandidateRoutes`
(flat node arrays, shared by every run on a deployment), and its plan is
one :class:`PairTable` over them: per pair its join node, whether it joins
at the base, its expected and at-base costs and where its three paths lie.
Placement evaluates the cost expression at every candidate join node of
every pair in one array pass; a :class:`PlacementDecision` is built only
when a reader asks for one pair's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.core.cost_model import Selectivities, innet_pair_cost, pair_at_base_cost
from repro.network.batch import PathMessages
from repro.network.message import MessageKind

Pair = Tuple[int, int]


@dataclass
class PlacementDecision:
    """The outcome of pairwise join-node placement for one (s, t) pair."""

    source: int
    target: int
    join_node: int
    at_base: bool
    expected_cost: float
    base_cost: float
    source_to_join: List[int]
    target_to_join: List[int]
    join_to_base: List[int]


class _Sigmas(NamedTuple):
    """:class:`~repro.core.cost_model.Selectivities` as arrays, so the cost
    model's expressions evaluate elementwise, term by term as written."""

    sigma_s: np.ndarray
    sigma_t: np.ndarray
    sigma_st: np.ndarray


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """Where each segment of *lengths* starts in their concatenation."""
    return np.cumsum(lengths) - lengths


def _first_minimum(values: np.ndarray, lengths: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Per segment (all non-empty) its minimum and the position of its first
    occurrence: a strict ``<`` scan from ``inf``."""
    starts = _offsets(lengths)
    minimum = np.minimum.reduceat(values, starts)
    position = np.arange(values.size) - np.repeat(starts, lengths)
    hit = np.where(values == np.repeat(minimum, lengths), position, values.size)
    return minimum, np.minimum.reduceat(hit, starts)


class CandidateRoutes(NamedTuple):
    """A query's pairs with their candidate routes (Section 2.2) as flat
    arrays: read-only, and shared by every run on a deployment (the route
    nodes and hops as ``int32``: a deployment memo keeps them)."""

    sources: np.ndarray       # per pair
    targets: np.ndarray       # per pair
    first_route: np.ndarray   # pair i's routes: first_route[i]:first_route[i + 1]
    starts: np.ndarray        # per route, its first node's offset in nodes
    lengths: np.ndarray       # per route, its node count
    nodes: np.ndarray         # the routes' nodes, route after route
    hops: np.ndarray          # per route node, its hops to the base station

    @classmethod
    def build(cls, pairs: Sequence[Pair], routes: Sequence[Sequence[Sequence[int]]],
              hops_to_base: np.ndarray) -> "CandidateRoutes":
        """*routes[i]* lists pair *i*'s candidate routes (at least one, each
        from its source to its target); *hops_to_base* is indexed by node."""
        per_pair = np.fromiter((len(found) for found in routes), dtype=np.int64,
                               count=len(routes))
        flat = [route for found in routes for route in found]
        lengths = np.fromiter((len(route) for route in flat), dtype=np.int64,
                              count=len(flat))
        nodes = np.fromiter((node for route in flat for node in route),
                            dtype=np.int32, count=int(lengths.sum()))
        sources, targets = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        return cls(
            sources=sources.copy(), targets=targets.copy(),
            first_route=np.concatenate(([0], np.cumsum(per_pair))),
            starts=_offsets(lengths), lengths=lengths, nodes=nodes,
            hops=hops_to_base[nodes].astype(np.int32),
        )

    def path_messages(self, sizes: np.ndarray) -> PathMessages:
        """Per pair, source first, an EXPLORE along its first route and the
        EXPLORE_REPLY back, each ``sizes[route]`` bytes."""
        first = self.first_route[:-1]
        starts, lengths = self.starts[first], self.lengths[first]
        count = first.size
        return PathMessages.gather(
            self.nodes,
            np.column_stack((starts, starts + lengths - 1)).ravel(),
            np.repeat(lengths, 2), np.tile([1, -1], count),
            np.repeat(sizes[first], 2), np.tile([0, 1], count),
            (MessageKind.EXPLORE, MessageKind.EXPLORE_REPLY),
        )


class PairTable:
    """One query plan's pairs, as columns over its :class:`CandidateRoutes`.

    Per pair (a *row*, in discovery order): its join node (the base station
    when it joins there), its expected and at-base costs, the candidate
    route it was placed on and the join node's index there.  A pair placed on its
    route ships along that route's two halves; any other pair (``index``
    -1) ships along explicit paths -- its producers' paths to the base once
    it joins there -- held once each in the table's path pool, so a producer
    with many pairs at the base keeps one path to it.  The pool keeps every
    path a decision used, as it was when the decision was made.
    """

    def __init__(self, routes: CandidateRoutes, assumed: Sequence[Selectivities],
                 base_path_of: Callable[[int], Sequence[int]], base_id: int) -> None:
        count = routes.sources.size
        self.routes = routes
        self.pairs: List[Pair] = list(zip(routes.sources.tolist(),
                                          routes.targets.tolist()))
        self.row_of: Dict[Pair, int] = {pair: row for row, pair in enumerate(self.pairs)}
        #: the rows in ascending pair order (the plan's window-row order)
        self.sorted_rows = np.lexsort((routes.targets, routes.sources))
        self.assumed: List[Selectivities] = list(assumed)
        self.base_id = base_id
        self.join = np.full(count, base_id, dtype=np.int64)
        self.expected_cost = np.zeros(count)
        self.base_cost = np.zeros(count)
        self.route = routes.first_route[:-1].copy()
        self.index = np.full(count, -1, dtype=np.int64)
        #: explicit paths, as pool ids: source -> join, target -> join and
        #: join -> base (-1 where the pair ships along its route)
        self.source_path = np.full(count, -1, dtype=np.int64)
        self.target_path = np.full(count, -1, dtype=np.int64)
        self.join_path = np.full(count, -1, dtype=np.int64)
        self._pool: List[Tuple[int, ...]] = []
        self._pool_ids: Dict[Tuple[int, ...], int] = {}
        #: per pool path its node count (capacity grows by doubling)
        self._pool_lengths = np.zeros(16, dtype=np.int64)
        self._base_path_of = base_path_of
        self._base_ids: Dict[int, int] = {}
        self._at_base_path = self._intern((base_id,))

    def __len__(self) -> int:
        return len(self.pairs)

    # -- the path pool ---------------------------------------------------------
    def _intern(self, path: Tuple[int, ...]) -> int:
        found = self._pool_ids.get(path)
        if found is None:
            found = self._pool_ids[path] = len(self._pool)
            self._pool.append(path)
            if found == self._pool_lengths.size:
                self._pool_lengths = np.concatenate((self._pool_lengths,
                                                     self._pool_lengths))
            self._pool_lengths[found] = len(path)
        return found

    def _base_paths(self, nodes: np.ndarray) -> np.ndarray:
        """Pool ids of the nodes' paths to the base station (each node's
        path is looked up once per routing generation)."""
        known = self._base_ids
        ids = []
        for node in nodes.tolist():
            found = known.get(node)
            if found is None:
                found = known[node] = self._intern(tuple(self._base_path_of(node)))
            ids.append(found)
        return np.array(ids, dtype=np.int64)

    def rebase(self, base_path_of: Callable[[int], Sequence[int]]) -> None:
        """Take later decisions' paths to the base from *base_path_of* (after
        a routing repair); earlier decisions keep the paths they were made
        with."""
        self._base_path_of = base_path_of
        self._base_ids = {}

    # -- placement -------------------------------------------------------------
    def place(self, rows: np.ndarray, window_size: int) -> None:
        """Place *rows* on the cheapest join node of their candidate routes,
        or at the base station when that is strictly cheaper, under their
        assumed selectivities (Section 3.1).

        Costs are :func:`~repro.core.cost_model.innet_pair_cost` and
        :func:`~repro.core.cost_model.pair_at_base_cost`, evaluated term by
        term in the same order; within a route, and across a pair's routes,
        the first minimum wins.
        """
        rows = np.asarray(rows, dtype=np.int64)
        routes = self.routes
        first = routes.first_route[rows]
        per_row = routes.first_route[rows + 1] - first
        route_ids = (np.repeat(first - _offsets(per_row), per_row)
                     + np.arange(int(per_row.sum())))
        assumed = self.assumed
        sigma = np.array([(assumed[row].sigma_s, assumed[row].sigma_t,
                           assumed[row].sigma_st) for row in rows.tolist()]).reshape(-1, 3)
        per_route = _Sigmas(*np.repeat(sigma, per_row, axis=0).T)
        starts, lengths = routes.starts[route_ids], routes.lengths[route_ids]
        d_sj = np.arange(int(lengths.sum())) - np.repeat(_offsets(lengths), lengths)
        cost = innet_pair_cost(
            _Sigmas(*(np.repeat(column, lengths) for column in per_route)),
            window_size, d_sj=d_sj, d_tj=np.repeat(lengths - 1, lengths) - d_sj,
            d_jr=routes.hops[np.repeat(starts, lengths) + d_sj])
        best_cost, best_index = _first_minimum(cost, lengths)
        base_cost = pair_at_base_cost(per_route, d_sr=routes.hops[starts],
                                      d_tr=routes.hops[starts + lengths - 1])
        via_base = base_cost < best_cost
        expected = np.where(via_base, base_cost, best_cost)
        _, chosen = _first_minimum(expected, per_row)
        pick = _offsets(per_row) + chosen
        via_base, route = via_base[pick], route_ids[pick]
        index = np.where(via_base, -1, best_index[pick])
        join = np.where(via_base, self.base_id,
                        routes.nodes[routes.starts[route] + np.maximum(index, 0)])
        self.join[rows] = join
        self.expected_cost[rows] = expected[pick]
        self.base_cost[rows] = base_cost[pick]
        self.route[rows] = route
        self.index[rows] = index
        on_route, at_base = rows[~via_base], rows[via_base]
        found = self._base_paths(np.concatenate((
            join[~via_base], routes.sources[at_base], routes.targets[at_base])))
        self.source_path[on_route] = -1
        self.target_path[on_route] = -1
        self.join_path[on_route] = found[:on_route.size]
        self._paths_to_base(at_base, found[on_route.size:])

    def _paths_to_base(self, rows: np.ndarray, found: np.ndarray) -> None:
        """Give *rows* their producers' paths to the base; *found* holds the
        sources' pool ids, then the targets'."""
        self.source_path[rows] = found[:rows.size]
        self.target_path[rows] = found[rows.size:]
        self.join_path[rows] = self._at_base_path

    def rewrite_to_base(self, rows: np.ndarray, base_cost=None) -> None:
        """Join *rows* at the base station over their producers' paths to it
        (GROUPOPT's grouped join, or a recovery); the expected cost becomes
        the at-base cost, *base_cost* when given."""
        rows = np.asarray(rows, dtype=np.int64)
        if base_cost is not None:
            self.base_cost[rows] = base_cost
        self.expected_cost[rows] = self.base_cost[rows]
        self.join[rows] = self.base_id
        self.index[rows] = -1
        self._paths_to_base(rows, self._base_paths(np.concatenate((
            self.routes.sources[rows], self.routes.targets[rows]))))

    def copy_row(self, row: int, other: "PairTable", other_row: int) -> None:
        """Give *row* the placement *other* holds for *other_row* (the same
        pair in another query's plan)."""
        self.join[row] = other.join[other_row]
        self.expected_cost[row] = other.expected_cost[other_row]
        self.base_cost[row] = other.base_cost[other_row]
        self.index[row] = -1
        self.source_path[row] = self._intern(tuple(other.path_to_join(other_row, True)))
        self.target_path[row] = self._intern(tuple(other.path_to_join(other_row, False)))
        self.join_path[row] = self._intern(other.join_to_base(other_row))

    # -- readers ---------------------------------------------------------------
    def path_to_join(self, row: int, source_side: bool) -> Sequence[int]:
        """The path from the pair's source (or target) to its join node."""
        index = int(self.index[row])
        if index < 0:
            path = self.source_path[row] if source_side else self.target_path[row]
            return self._pool[int(path)]
        route = int(self.route[row])
        start = int(self.routes.starts[route])
        if source_side:
            return self.routes.nodes[start:start + index + 1].tolist()
        end = start + int(self.routes.lengths[route])
        return self.routes.nodes[start + index:end][::-1].tolist()

    def join_to_base(self, row: int) -> Tuple[int, ...]:
        return self._pool[int(self.join_path[row])]

    def decision(self, row: int) -> PlacementDecision:
        source, target = self.pairs[row]
        return PlacementDecision(
            source=source, target=target, join_node=int(self.join[row]),
            at_base=bool(self.join[row] == self.base_id),
            expected_cost=float(self.expected_cost[row]),
            base_cost=float(self.base_cost[row]),
            source_to_join=list(self.path_to_join(row, True)),
            target_to_join=list(self.path_to_join(row, False)),
            join_to_base=list(self.join_to_base(row)),
        )

    def path_keys(self, source_side: bool) -> np.ndarray:
        """Per row a key naming its path to the join node: rows with equal
        keys ship along equal paths."""
        explicit = self.source_path if source_side else self.target_path
        width = int(self.routes.lengths.max(initial=0)) + 1
        return np.where(self.index < 0, -1 - explicit,
                        self.route * width + self.index)

    def distances(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per row ``(D_sj, D_tj, D_jr)``: the hops of its three paths."""
        pool_lengths = self._pool_lengths
        index = self.index[rows]
        on_route = index >= 0
        length = self.routes.lengths[self.route[rows]]
        d_sj = np.where(on_route, index, pool_lengths[self.source_path[rows]] - 1)
        d_tj = np.where(on_route, length - 1 - index,
                        pool_lengths[self.target_path[rows]] - 1)
        return d_sj, d_tj, pool_lengths[self.join_path[rows]] - 1

    def nomination_messages(self, rows: np.ndarray, size: int) -> PathMessages:
        """Per row, in order, the nomination protocol of Section 3.2: ``t``
        nominates the join node along its path to it, then the join node
        notifies ``s`` along the source's path reversed."""
        rows = np.asarray(rows, dtype=np.int64)
        routes = self.routes
        index = self.index[rows]
        start = routes.starts[self.route[rows]]
        length = routes.lengths[self.route[rows]]
        target_first, target_length = start + length - 1, length - index
        source_first, source_length = start + index, index + 1
        target_step = np.full(rows.size, -1)
        # the explicit paths of the rows off their routes (targets', then
        # sources'), copied after the route nodes
        off = index < 0
        explicit = np.concatenate((self.target_path[rows[off]], self.source_path[rows[off]]))
        lengths = self._pool_lengths[explicit]
        firsts = routes.nodes.size + _offsets(lengths)
        count = int(off.sum())
        target_first[off], target_length[off] = firsts[:count], lengths[:count]
        source_first[off] = firsts[count:] + lengths[count:] - 1
        source_length[off] = lengths[count:]
        target_step[off] = 1
        pool = self._pool
        nodes = routes.nodes if not count else np.concatenate((routes.nodes, np.fromiter(
            (node for path in explicit.tolist() for node in pool[path]), dtype=np.int64,
            count=int(lengths.sum()))))
        return PathMessages.gather(
            nodes,
            np.column_stack((target_first, source_first)).ravel(),
            np.column_stack((target_length, source_length)).ravel(),
            np.column_stack((target_step, np.full(rows.size, -1))).ravel(),
            size, 0, (MessageKind.NOMINATE,),
        )
