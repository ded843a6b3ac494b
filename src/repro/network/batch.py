"""Batch-cycle transport kernel: one array-level charge per sampling cycle.

The per-tuple path (:meth:`NetworkSimulator.transfer`) executes one Python
call chain per shipped tuple; at figure scale that caps the whole engine at
a few hundred transfers per second.  This module is the only array
transport: it materializes an entire sampling cycle's shipping as flat numpy
arrays instead.

* :class:`CycleBatcher` -- the per-cycle collector join strategies ship
  through on the kernel (``ctx.ship`` routes here, and the strategies'
  ``execute_cycle_batch`` calls :meth:`~CycleBatcher.ship_many` /
  :meth:`~CycleBatcher.ship_edges` directly); delivery outcomes are
  computed immediately, charging is deferred to one
  :meth:`CycleBatcher.flush`,
* :class:`PathBatch` -- the payload of the pipeline's ``charge_paths_batch``
  event that flush emits: one event carries every hop charged in a cycle.

Bit-identity with the per-tuple reference path rests on two facts:

1. Traffic units are integer-valued floats far below 2**53, so float sums
   are exact and order-independent -- aggregating hop charges with
   ``np.bincount`` produces the same numbers as per-hop dictionary adds.
2. numpy's ``Generator`` draws variates sequentially, so one batched
   ``LinkModel.attempt_hops_batch`` call consumes the seeded RNG stream
   exactly like the per-path ``attempt_hops`` calls it replaces (and the
   scalar :meth:`CycleBatcher.ship` draws at ship time, in ship order).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.message import MessageKind

__all__ = ["PathBatch", "CycleBatcher"]


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
    """One ``charge_paths_batch`` event: every hop charged this cycle.

    ``senders`` / ``receivers`` / ``sizes`` / ``kind_codes`` are aligned
    per-charged-hop arrays (``kinds[kind_codes[i]]`` is hop *i*'s message
    kind); ``attempts`` is the per-hop transmission count or ``None`` when
    every hop is a single transmission (perfect links).  ``drops`` counts
    link-loss message drops.  :meth:`CycleBatcher.flush` is the only
    producer: sinks charge from the hop arrays with one ``np.bincount``
    body.

    :meth:`iter_records` exposes the per-path view -- the exact
    ``charge_path`` / ``charge_drop`` call sequence the per-tuple reference
    would have made -- so sinks that never implemented the batch event are
    replayed losslessly by the pipeline's unroll adapter.
    """

    __slots__ = ("senders", "receivers", "sizes", "attempts", "kind_codes",
                 "kinds", "drops", "_record_groups")

    def __init__(self, senders, receivers, sizes, attempts, kind_codes,
                 kinds, drops, record_groups) -> None:
        self.senders = senders
        self.receivers = receivers
        self.sizes = sizes
        self.attempts = attempts
        self.kind_codes = kind_codes
        self.kinds = kinds
        self.drops = drops
        self._record_groups = record_groups

    def iter_records(self) -> Iterator[Tuple[Any, int, MessageKind,
                                             Optional[np.ndarray],
                                             Optional[int], bool]]:
        """Per-path ``(path, size_bytes, kind, attempts, num_hops, dropped)``.

        Mirrors the reference call sequence exactly: a delivered path is
        ``charge_path(path, size, kind, attempts=attempts)`` (``attempts``
        ``None`` on perfect links), a dropped one is ``charge_path(...,
        num_hops=first_failed_hop + 1)`` followed by ``charge_drop()``.
        """
        for kind, size_bytes, records in self._record_groups:
            for entry in records:
                if type(entry) is _EdgeBlock:
                    yield from entry.iter_records(size_bytes, kind)
                    continue
                path, attempts, num_hops, dropped = entry
                yield path, size_bytes, kind, attempts, num_hops, dropped


class _EdgeBlock:
    """A block of single-hop tree edges shipped in one batched draw.

    Multicast trees ship every (parent, child) edge as its own one-hop path;
    a block keeps the whole tree's edges as flat arrays instead of one
    record per edge.  ``attempts`` / ``failed`` are ``None`` on perfect
    links; on lossy links every edge still charges its single hop (the
    charged prefix of a one-hop path is always that hop), so no masking is
    needed -- only the drop count and per-edge verdicts differ.
    """

    __slots__ = ("senders", "receivers", "attempts", "failed")

    def __init__(self, senders: np.ndarray, receivers: np.ndarray,
                 attempts: Optional[np.ndarray],
                 failed: Optional[np.ndarray]) -> None:
        self.senders = senders
        self.receivers = receivers
        self.attempts = attempts
        self.failed = failed

    def iter_records(self, size_bytes: int, kind: MessageKind) -> Iterator[
            Tuple[Any, int, MessageKind, Optional[np.ndarray],
                  Optional[int], bool]]:
        """Expand into the per-edge reference call sequence (edge order)."""
        senders = self.senders
        receivers = self.receivers
        attempts = self.attempts
        if attempts is None:
            for i in range(senders.size):
                yield ((int(senders[i]), int(receivers[i])), size_bytes, kind,
                       None, None, False)
            return
        failed = self.failed
        for i in range(senders.size):
            path = (int(senders[i]), int(receivers[i]))
            if failed[i]:
                yield path, size_bytes, kind, attempts[i:i + 1], 1, True
            else:
                yield path, size_bytes, kind, attempts[i:i + 1], None, False


class _BatchGroup:
    """Accumulated hops for one (kind, size) combination within a cycle."""

    __slots__ = ("senders", "receivers", "attempts", "records", "drops",
                 "edge_parts")

    def __init__(self) -> None:
        self.senders: List[int] = []
        self.receivers: List[int] = []
        self.attempts: List[int] = []
        self.records: List[Any] = []
        self.drops = 0
        #: _EdgeBlock instances folded into the flat arrays at flush time
        self.edge_parts: List[_EdgeBlock] = []


class CycleBatcher:
    """Collects one sampling cycle's ships into a single pipeline event.

    Strategies ship through :meth:`ship` (drop-in for ``ctx.ship``: the
    delivery outcome is returned immediately, so conditional control flow is
    unchanged) or :meth:`ship_many` (one batched link-model draw for a whole
    path list).  :meth:`flush` emits everything accumulated as one
    ``charge_paths_batch`` event -- the flyweight invariant of the batch
    kernel: one event per cycle, no matter how many tuples shipped.

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
            group.records.append((path, None, None, False))
            return True
        delivered, attempts = self.links.attempt_hops(hops)
        if delivered.all():
            group.senders.extend(path[:hops])
            group.receivers.extend(path[1:])
            group.attempts.extend(attempts.tolist())
            group.records.append((path, attempts, None, False))
            return True
        charged = int(np.argmax(~delivered)) + 1
        group.senders.extend(path[:charged])
        group.receivers.extend(path[1:charged + 1])
        group.attempts.extend(attempts[:charged].tolist())
        group.records.append((path, attempts, charged, True))
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
        if self.lossless:
            group = None
            for path in paths:
                hops = len(path) - 1
                if hops <= 0:
                    continue
                if group is None:
                    # Created lazily so an all-zero-hop call leaves no empty
                    # group behind (a shipless cycle must emit no event).
                    group = self._group(kind, size_bytes)
                group.senders.extend(path[:hops])
                group.receivers.extend(path[1:])
                group.records.append((path, None, None, False))
            return np.ones(n, dtype=bool)
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
        records = group.records
        delivered_hops, attempts = self.links.attempt_hops_batch(lens)
        delivered, charged, starts = _segment_outcomes(lens, delivered_hops)
        att_list = group.attempts
        drops = 0
        for index, path in enumerate(paths):
            hops = int(lens[index])
            if hops == 0:
                continue
            start = int(starts[index])
            per_path = attempts[start:start + hops]
            span = int(charged[index])
            senders.extend(path[:span])
            receivers.extend(path[1:span + 1])
            att_list.extend(per_path[:span].tolist())
            if delivered[index]:
                records.append((path, per_path, None, False))
            else:
                records.append((path, per_path, span, True))
                drops += 1
        group.drops += drops
        return delivered

    def ship_edges(self, senders: np.ndarray, receivers: np.ndarray,
                   size_bytes: int,
                   kind: MessageKind = MessageKind.DATA) -> np.ndarray:
        """Defer a block of single-hop edges (one multicast tree's traffic).

        *senders* / *receivers* are aligned int arrays, one entry per
        (parent, child) transmission edge.  Equivalent to calling
        :meth:`ship` per two-node edge path in array order: on lossy links
        one ``attempt_hops_batch`` draw over ``n`` one-hop paths consumes the
        seeded RNG stream exactly like ``n`` sequential per-edge draws, and
        every edge charges its single hop whether or not it delivers (the
        charged prefix of a one-hop path is always that hop).  Returns the
        per-edge delivered flags.
        """
        senders = np.asarray(senders, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        n = int(senders.size)
        if n == 0:
            return np.zeros(0, dtype=bool)
        group = self._group(kind, size_bytes)
        if self.lossless:
            block = _EdgeBlock(senders, receivers, None, None)
            group.edge_parts.append(block)
            group.records.append(block)
            return np.ones(n, dtype=bool)
        delivered, attempts = self.links.attempt_hops_batch(
            np.ones(n, dtype=np.int64)
        )
        failed = ~delivered
        block = _EdgeBlock(senders, receivers, attempts, failed)
        group.edge_parts.append(block)
        group.records.append(block)
        group.drops += int(np.count_nonzero(failed))
        return delivered

    # -- flushing -----------------------------------------------------------
    def flush(self) -> None:
        """Emit everything accumulated as one ``charge_paths_batch`` event.

        A cycle in which nothing shipped (or in which every shipped path was
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
        attempt_parts: List[np.ndarray] = []
        code_parts: List[np.ndarray] = []
        kinds: List[MessageKind] = []
        record_groups: List[Tuple] = []
        drops = 0
        for (kind, size_bytes), group in groups.items():
            scalar_count = len(group.senders)
            count = scalar_count + sum(
                block.senders.size for block in group.edge_parts
            )
            if count == 0:
                continue
            code = len(kinds)
            kinds.append(kind)
            # Within a group the flat hop order is free (hop charges are
            # aggregated order-independently); replay order lives in records.
            if scalar_count:
                sender_parts.append(np.asarray(group.senders, dtype=np.int64))
                receiver_parts.append(
                    np.asarray(group.receivers, dtype=np.int64)
                )
                if not self.lossless:
                    attempt_parts.append(
                        np.asarray(group.attempts, dtype=np.int64)
                    )
            for block in group.edge_parts:
                sender_parts.append(block.senders)
                receiver_parts.append(block.receivers)
                if not self.lossless:
                    attempt_parts.append(block.attempts)
            size_parts.append(np.full(count, float(size_bytes)))
            code_parts.append(np.full(count, code, dtype=np.int64))
            record_groups.append((kind, size_bytes, group.records))
            drops += group.drops
        if not kinds:
            return
        if len(kinds) == 1 and len(sender_parts) == 1:
            batch = PathBatch(
                senders=sender_parts[0], receivers=receiver_parts[0],
                sizes=size_parts[0],
                attempts=attempt_parts[0] if attempt_parts else None,
                kind_codes=code_parts[0], kinds=tuple(kinds), drops=drops,
                record_groups=record_groups,
            )
        else:
            batch = PathBatch(
                senders=np.concatenate(sender_parts),
                receivers=np.concatenate(receiver_parts),
                sizes=np.concatenate(size_parts),
                attempts=(np.concatenate(attempt_parts)
                          if attempt_parts else None),
                kind_codes=np.concatenate(code_parts),
                kinds=tuple(kinds), drops=drops,
                record_groups=record_groups,
            )
        self.simulator.pipeline.charge_paths_batch(batch)
