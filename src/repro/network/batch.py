"""Batch-cycle transport kernel: one array-level charge per block of cycles.

The per-tuple path (:meth:`NetworkSimulator.transfer`) executes one Python
call chain per shipped tuple; at figure scale that caps the whole engine at
a few hundred transfers per second.  This module is the only array
transport: it materializes a block's shipping as flat numpy arrays instead.
A block is one sampling cycle, or -- on perfect links with every node alive
and no sink besides the traffic stats -- the longest run of cycles in which
nothing can change routes, placement or verdicts (the executor's block
rule, :meth:`~repro.joins.executor.JoinExecutor._block_length`).

* :class:`CycleBatcher` -- the per-block collector join strategies ship
  through on the kernel (``ctx.ship`` routes here, and the strategies'
  ``execute_cycle_batch`` calls :meth:`~CycleBatcher.ship_many` /
  :meth:`~CycleBatcher.ship_edges` / :meth:`~CycleBatcher.ship_routes`
  directly); delivery outcomes are computed immediately, charging is
  deferred to one :meth:`CycleBatcher.flush`,
* :class:`RouteHops` -- a strategy's routes as flat hop arrays, built when
  its routes are: a block charges each route by how many messages crossed
  it, however many cycles the block spans,
* :class:`PathMessages` -- a sequence of messages (one path, size and kind
  each) as flat node arrays: a protocol phase that sends one message per
  pair (exploration, nominations) ships it with one
  :meth:`CycleBatcher.ship_paths` call,
* :class:`PathBatch` -- the payload of the pipeline's ``charge_paths_batch``
  event that flush emits: one event carries every hop charged in a block,
  with a per-hop message count and, on lossy links, per-hop attempts.  It
  is the kernel's only charge representation: there is no per-path replay,
  so every sink that takes charges handles this event (the pipeline
  rejects one that does not).

Lossy links keep blocks at one cycle: verdicts are drawn per ship, in ship
order, and later ships depend on them.  A dead node keeps a cycle off the
kernel altogether (the per-hop ``transfer`` walk models it).

Bit-identity with the per-tuple reference path rests on two facts:

1. Traffic units are integer-valued floats far below 2**53, so float sums
   and products are exact and order-independent -- aggregating hop charges
   with ``np.bincount``, weighted by message counts, produces the same
   numbers as per-hop dictionary adds.
2. numpy's ``Generator`` draws variates sequentially, so one batched
   ``LinkModel.attempt_hops_batch`` call consumes the seeded RNG stream
   exactly like the per-path ``attempt_hops`` calls it replaces (and the
   scalar :meth:`CycleBatcher.ship` draws at ship time, in ship order).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.message import MessageKind

__all__ = ["PathBatch", "CycleBatcher", "PathMessages", "RouteHops"]


def _segment_outcomes(
    lens: np.ndarray, delivered_hops: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-path delivery outcomes from flat per-hop delivery flags.

    *lens* holds each path's hop count (zero-hop entries allowed: they ship
    nothing and are trivially delivered); *delivered_hops* is the
    concatenated per-hop success flags.  Returns ``(delivered, charged,
    starts)``: whether each path reached its end, how many of its hops are
    charged (all of them on success, up to and including the first failed
    hop otherwise -- the reference ``transfer`` semantics), and each path's
    offset into the flat hop arrays.
    """
    n = lens.size
    starts = np.zeros(n, dtype=np.int64)
    if n > 1:
        np.cumsum(lens[:-1], out=starts[1:])
    delivered = np.ones(n, dtype=bool)
    charged = lens.copy()
    nonzero = np.flatnonzero(lens)
    if nonzero.size:
        total = delivered_hops.size
        nz_lens = lens[nonzero]
        within = (
            np.arange(total, dtype=np.int64)
            - np.repeat(starts[nonzero], nz_lens)
        )
        # 'total' is larger than any within-segment index, so a fully
        # delivered segment's minimum stays >= its length.
        fail_pos = np.where(delivered_hops, total, within)
        first_fail = np.minimum.reduceat(fail_pos, starts[nonzero])
        ok = first_fail >= nz_lens
        delivered[nonzero] = ok
        charged[nonzero] = np.where(ok, nz_lens, first_fail + 1)
    return delivered, charged, starts


class PathBatch:
    """One ``charge_paths_batch`` event: every hop charged in a block.

    ``senders`` / ``receivers`` / ``sizes`` / ``kind_codes`` are aligned
    per-charged-hop arrays (``kinds[kind_codes[i]]`` is hop *i*'s message
    kind); ``counts`` is how many messages crossed each hop, or ``None`` when
    every hop carried one -- it multiplies transmitted and received units,
    the per-kind units and the messages sent; ``attempts`` is the per-hop
    transmission count of a message or ``None`` when every hop is a single
    transmission (perfect links), and multiplies transmitted units only.
    ``drops`` counts link-loss message drops.  :meth:`CycleBatcher.flush` is
    the only producer: sinks charge from the hop arrays with one
    ``np.bincount`` body, which sums to exactly what the per-path
    ``charge_path`` / ``charge_drop`` calls of the per-tuple reference would.
    """

    __slots__ = ("senders", "receivers", "sizes", "counts", "attempts",
                 "kind_codes", "kinds", "drops")

    def __init__(self, senders, receivers, sizes, counts, attempts, kind_codes,
                 kinds, drops) -> None:
        self.senders = senders
        self.receivers = receivers
        self.sizes = sizes
        self.counts = counts
        self.attempts = attempts
        self.kind_codes = kind_codes
        self.kinds = kinds
        self.drops = drops


class _HopBlock:
    """Hops shipped as arrays rather than path by path: one multicast
    tree's single-hop edges (:meth:`CycleBatcher.ship_edges`), or the routes
    of a :class:`RouteHops` table some messages crossed
    (:meth:`CycleBatcher.ship_routes`).

    ``counts`` is how many messages crossed each hop (``None``: one each);
    ``attempts`` is the per-hop transmission count, ignored on perfect
    links.
    """

    __slots__ = ("senders", "receivers", "counts", "attempts")

    def __init__(self, senders: np.ndarray, receivers: np.ndarray,
                 counts: Optional[np.ndarray],
                 attempts: Optional[np.ndarray]) -> None:
        self.senders = senders
        self.receivers = receivers
        self.counts = counts
        self.attempts = attempts


class RouteHops:
    """The hops of a fixed list of routes as flat arrays, so a block of
    cycles charges them by per-route message counts
    (:meth:`CycleBatcher.ship_routes`).

    Route ``r`` is the paths one message of the route crosses in full --
    a producer's path to the base, or its multicast tree edges and direct
    join paths; a route may be empty.  Strategies build one per route
    family when they (re)build their routes.
    """

    __slots__ = ("senders", "receivers", "route_of_hop")

    def __init__(self, routes: Sequence[Sequence[Sequence[int]]]) -> None:
        senders: List[int] = []
        receivers: List[int] = []
        owners: List[int] = []
        for route, paths in enumerate(routes):
            for path in paths:
                hops = len(path) - 1
                if hops > 0:
                    senders.extend(path[:hops])
                    receivers.extend(path[1:])
                    owners.extend([route] * hops)
        self.senders = np.array(senders, dtype=np.int64)
        self.receivers = np.array(receivers, dtype=np.int64)
        self.route_of_hop = np.array(owners, dtype=np.int64)


class PathMessages:
    """Messages in ship order as flat arrays: message ``m`` crosses the
    ``lengths[m]`` nodes that follow the previous messages' nodes in
    :attr:`nodes`, is ``sizes[m]`` bytes and of kind ``kinds[codes[m]]``.

    Every message has at least two nodes (a zero-hop message ships
    nothing).  :meth:`gather` builds one from segments of a node pool.
    """

    __slots__ = ("nodes", "lengths", "sizes", "codes", "kinds")

    def __init__(self, nodes: np.ndarray, lengths: np.ndarray, sizes: np.ndarray,
                 codes: np.ndarray, kinds: Tuple[MessageKind, ...]) -> None:
        self.nodes = nodes
        self.lengths = lengths
        self.sizes = sizes
        self.codes = codes
        self.kinds = kinds

    @classmethod
    def gather(cls, pool: np.ndarray, firsts: np.ndarray, lengths: np.ndarray,
               steps: np.ndarray, sizes, codes, kinds: Tuple[MessageKind, ...]
               ) -> "PathMessages":
        """Message ``m`` visits ``pool[firsts[m] + steps[m] * i]`` for ``i``
        in ``range(lengths[m])`` (a step of -1 walks a pool segment
        backwards); messages of fewer than two nodes are dropped.  *sizes*
        and *codes* are one value or one per message."""
        sizes = np.zeros(lengths.size, dtype=np.int64) + sizes
        codes = np.zeros(lengths.size, dtype=np.int64) + codes
        keep = lengths > 1
        firsts, lengths, steps = firsts[keep], lengths[keep], steps[keep]
        offsets = np.cumsum(lengths) - lengths
        within = np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(offsets, lengths)
        index = np.repeat(firsts, lengths) + np.repeat(steps, lengths) * within
        return cls(pool[index], lengths, sizes[keep], codes[keep], kinds)

    def __len__(self) -> int:
        return int(self.lengths.size)

    def each(self):
        """``(path, size, kind)`` per message, in ship order."""
        nodes = self.nodes.tolist()
        start = 0
        for length, size, code in zip(self.lengths.tolist(), self.sizes.tolist(),
                                      self.codes.tolist()):
            yield nodes[start:start + length], size, self.kinds[code]
            start += length


class _BatchGroup:
    """Accumulated hops for one (kind, size) combination within a block."""

    __slots__ = ("senders", "receivers", "attempts", "drops", "blocks")

    def __init__(self) -> None:
        self.senders: List[int] = []
        self.receivers: List[int] = []
        self.attempts: List[int] = []
        self.drops = 0
        #: _HopBlock instances folded into the flat arrays at flush time
        self.blocks: List[_HopBlock] = []


class CycleBatcher:
    """Collects one block's ships into a single pipeline event.

    Strategies ship through :meth:`ship` (drop-in for ``ctx.ship``: the
    delivery outcome is returned immediately, so conditional control flow is
    unchanged), :meth:`ship_many` (one batched link-model draw for a whole
    path list) or :meth:`ship_routes` (a block's messages, counted per
    precomputed route).  :meth:`flush` emits everything accumulated as one
    ``charge_paths_batch`` event -- the flyweight invariant of the batch
    kernel: one event per block, no matter how many tuples shipped.

    Exactness: on lossy links :meth:`ship` draws ``attempt_hops`` at ship
    time (the same call, on the same stream, the reference ``transfer``
    would make) and :meth:`ship_many` draws once via ``attempt_hops_batch``
    (bit-identical to consecutive per-path draws); zero-hop paths consume no
    randomness in either mode, matching ``ctx.ship``'s early return.
    """

    def __init__(self, simulator) -> None:
        self.simulator = simulator
        self.links = simulator.links
        self.lossless = simulator.links.loss_probability == 0.0
        self._groups: Dict[Tuple[MessageKind, int], _BatchGroup] = {}

    def _group(self, kind: MessageKind, size_bytes: int) -> _BatchGroup:
        key = (kind, size_bytes)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _BatchGroup()
        return group

    # -- shipping -----------------------------------------------------------
    def ship(self, path: Sequence[int], size_bytes: int,
             kind: MessageKind = MessageKind.DATA) -> bool:
        """Defer one path's charge; returns whether it was delivered."""
        hops = len(path) - 1
        if hops <= 0:
            return True
        group = self._group(kind, size_bytes)
        if self.lossless:
            group.senders.extend(path[:hops])
            group.receivers.extend(path[1:])
            return True
        delivered, attempts = self.links.attempt_hops(hops)
        if delivered.all():
            group.senders.extend(path[:hops])
            group.receivers.extend(path[1:])
            group.attempts.extend(attempts.tolist())
            return True
        charged = int(np.argmax(~delivered)) + 1
        group.senders.extend(path[:charged])
        group.receivers.extend(path[1:charged + 1])
        group.attempts.extend(attempts[:charged].tolist())
        group.drops += 1
        return False

    def ship_many(self, paths: Sequence[Sequence[int]], size_bytes: int,
                  kind: MessageKind = MessageKind.DATA) -> np.ndarray:
        """Defer many paths' charges with one batched link-model draw.

        Returns the per-path delivered flags.  Equivalent to calling
        :meth:`ship` per path in order (same RNG stream, same charges).
        """
        n = len(paths)
        if n == 0:
            return np.zeros(0, dtype=bool)
        lens = np.fromiter(
            (len(path) - 1 for path in paths), count=n, dtype=np.int64
        )
        np.maximum(lens, 0, out=lens)
        if not lens.any():
            # Zero-hop paths deliver trivially and consume no randomness.
            return np.ones(n, dtype=bool)
        group = self._group(kind, size_bytes)
        senders = group.senders
        receivers = group.receivers
        att_list = group.attempts
        delivered_hops, attempts = self.links.attempt_hops_batch(lens)
        delivered, charged, starts = _segment_outcomes(lens, delivered_hops)
        for index, path in enumerate(paths):
            span = int(charged[index])
            if span:
                start = int(starts[index])
                senders.extend(path[:span])
                receivers.extend(path[1:span + 1])
                att_list.extend(attempts[start:start + span].tolist())
        group.drops += n - int(np.count_nonzero(delivered))
        return delivered

    def ship_edges(self, senders: np.ndarray, receivers: np.ndarray,
                   size_bytes, kind: MessageKind = MessageKind.DATA) -> np.ndarray:
        """Defer a block of single-hop edges (one multicast tree's traffic,
        or a query's exploration messages).

        *senders* / *receivers* are aligned int arrays, one entry per
        (sender, receiver) transmission edge; *size_bytes* is one size for
        all of them or an aligned array of per-edge sizes.  Equivalent to
        calling :meth:`ship` per two-node edge path in array order: on lossy
        links one ``attempt_hops_batch`` draw over ``n`` one-hop paths
        consumes the seeded RNG stream exactly like ``n`` sequential
        per-edge draws, and every edge charges its single hop whether or not
        it delivers (the charged prefix of a one-hop path is always that
        hop).  Returns the per-edge delivered flags.
        """
        senders = np.asarray(senders, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        n = int(senders.size)
        if n == 0:
            return np.zeros(0, dtype=bool)
        delivered, attempts = self.links.attempt_hops_batch(
            np.ones(n, dtype=np.int64)
        )
        if isinstance(size_bytes, np.ndarray):
            # Within a (kind, size) group the hop order is free, so edges of
            # several sizes split by size after the one draw in ship order.
            for size in np.unique(size_bytes).tolist():
                at = size_bytes == size
                self._add_edges(kind, size, senders[at], receivers[at],
                                delivered[at], attempts[at])
        else:
            self._add_edges(kind, size_bytes, senders, receivers, delivered, attempts)
        return delivered

    def _add_edges(self, kind: MessageKind, size_bytes: int, senders: np.ndarray,
                   receivers: np.ndarray, delivered: np.ndarray,
                   attempts: np.ndarray) -> None:
        """Defer one size's single-hop edges (the body of :meth:`ship_edges`)."""
        group = self._group(kind, size_bytes)
        group.blocks.append(_HopBlock(senders, receivers, None, attempts))
        group.drops += delivered.size - int(np.count_nonzero(delivered))

    def ship_paths(self, messages: PathMessages) -> None:
        """Defer every message of *messages* (perfect links only: every
        message delivers).

        Equivalent to calling :meth:`ship` per message in order: (kind,
        size) groups are opened in the order their first message ships.
        """
        nodes = np.asarray(messages.nodes, dtype=np.int64)
        # a hop leaves every node but the last of its message
        leaves = np.ones(nodes.size, dtype=bool)
        leaves[np.cumsum(messages.lengths) - 1] = False
        senders = nodes[leaves]
        receivers = nodes[1:][leaves[:-1]]
        message_of_hop = np.repeat(np.arange(len(messages)), messages.lengths - 1)
        keys = messages.codes * (1 << 32) + messages.sizes
        for key in dict.fromkeys(keys.tolist()):   # distinct, in ship order
            hop_mask = (keys == key)[message_of_hop]
            code, size = divmod(key, 1 << 32)
            self._group(messages.kinds[code], size).blocks.append(
                _HopBlock(senders[hop_mask], receivers[hop_mask], None, None))

    def ship_routes(self, table: RouteHops, counts: np.ndarray,
                    size_bytes: int, kind: MessageKind) -> None:
        """Defer ``counts[r]`` messages over each route ``r`` of *table*
        (perfect links only: every message delivers).

        Equivalent to shipping each route's paths ``counts[r]`` times; the
        charge is the route's hop arrays weighted by its count, so a block
        of cycles costs one gather however many messages it sent.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if not table.senders.size or not counts.any():
            return
        per_hop = counts[table.route_of_hop]
        used = per_hop > 0
        if not used.any():
            return
        self._group(kind, size_bytes).blocks.append(_HopBlock(
            table.senders[used], table.receivers[used], per_hop[used], None))

    # -- flushing -----------------------------------------------------------
    def flush(self) -> None:
        """Emit everything accumulated as one ``charge_paths_batch`` event.

        A block in which nothing shipped (or in which every shipped path was
        zero-hop) emits no event at all -- sinks observe exactly the charge
        activity the per-tuple reference would have produced, including its
        absence.
        """
        groups = self._groups
        if not groups:
            return
        self._groups = {}
        sender_parts: List[np.ndarray] = []
        receiver_parts: List[np.ndarray] = []
        size_parts: List[np.ndarray] = []
        #: per part its per-hop message counts, or its hop count when every
        #: hop carried one message
        count_parts: List[Any] = []
        counted = False
        attempt_parts: List[np.ndarray] = []
        code_parts: List[np.ndarray] = []
        kinds: List[MessageKind] = []
        drops = 0
        # Every group holds at least one hop: each ship method creates its
        # group only once it has a hop to charge.
        for (kind, size_bytes), group in groups.items():
            scalar_count = len(group.senders)
            count = scalar_count + sum(
                block.senders.size for block in group.blocks
            )
            code = len(kinds)
            kinds.append(kind)
            # Within a group the flat hop order is free: hop charges are
            # aggregated order-independently.
            if scalar_count:
                sender_parts.append(np.asarray(group.senders, dtype=np.int64))
                receiver_parts.append(
                    np.asarray(group.receivers, dtype=np.int64)
                )
                count_parts.append(scalar_count)
                if not self.lossless:
                    attempt_parts.append(
                        np.asarray(group.attempts, dtype=np.int64)
                    )
            for block in group.blocks:
                sender_parts.append(block.senders)
                receiver_parts.append(block.receivers)
                if block.counts is None:
                    count_parts.append(block.senders.size)
                else:
                    count_parts.append(block.counts)
                    counted = True
                if not self.lossless:
                    attempt_parts.append(block.attempts)
            size_parts.append(np.full(count, float(size_bytes)))
            code_parts.append(np.full(count, code, dtype=np.int64))
            drops += group.drops
        if counted:
            count_parts = [
                np.ones(part, dtype=np.int64) if type(part) is int else part
                for part in count_parts
            ]
        if len(kinds) == 1 and len(sender_parts) == 1:
            batch = PathBatch(
                senders=sender_parts[0], receivers=receiver_parts[0],
                sizes=size_parts[0],
                counts=count_parts[0] if counted else None,
                attempts=attempt_parts[0] if attempt_parts else None,
                kind_codes=code_parts[0], kinds=tuple(kinds), drops=drops,
            )
        else:
            batch = PathBatch(
                senders=np.concatenate(sender_parts),
                receivers=np.concatenate(receiver_parts),
                sizes=np.concatenate(size_parts),
                counts=np.concatenate(count_parts) if counted else None,
                attempts=(np.concatenate(attempt_parts)
                          if attempt_parts else None),
                kind_codes=np.concatenate(code_parts),
                kinds=tuple(kinds), drops=drops,
            )
        self.simulator.pipeline.charge_paths_batch(batch)
