"""Tuple-based join windows.

The join query specifies a window over each source stream, which bounds the
buffer maintained per producer: each newly arriving tuple is joined against
the contents of the opposite buffer, then enqueued into its own window,
evicting expired tuples (Section 2).  Windows are partitioned per producer
(grouping attribute = producer id) so no global window coordination across
nodes is required.

The window state can be exported and re-imported so that an adaptive
re-optimization can hand a join window over to a new join node without losing
results (Section 6).

Two implementations of the same semantics live here.  :class:`JoinState` is
the per-pair object form, one tuple at a time: it is the scalar reference the
tests compare against.  :class:`WindowStore` is what the join strategies run:
the windows of every pair of one strategy as ring-buffer columns, probed and
filled a whole sampling cycle -- or a whole block of cycles -- at a time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.query.expressions import as_column


@dataclass(frozen=True)
class WindowedTuple:
    """One buffered reading from a producer."""

    producer_id: int
    cycle: int
    values: Dict[str, Any]


class TupleWindow:
    """A bounded FIFO window of :class:`WindowedTuple`."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("window size must be at least 1")
        self.size = size
        self._tuples: Deque[WindowedTuple] = deque(maxlen=size)

    def insert(self, item: WindowedTuple) -> Optional[WindowedTuple]:
        """Add a tuple; returns the evicted tuple if the window was full."""
        tuples = self._tuples
        evicted = tuples[0] if len(tuples) == self.size else None
        tuples.append(item)  # maxlen evicts the oldest automatically
        return evicted

    def contents(self) -> List[WindowedTuple]:
        return list(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self):
        return iter(self._tuples)

    def is_empty(self) -> bool:
        return not self._tuples

    def clear(self) -> None:
        self._tuples.clear()

    def export_state(self) -> List[WindowedTuple]:
        """Snapshot used when transferring the window to a new join node."""
        return list(self._tuples)

    def import_state(self, tuples: List[WindowedTuple]) -> None:
        self._tuples = deque(tuples[-self.size:], maxlen=self.size)


JoinPredicate = Callable[[Dict[str, Any], Dict[str, Any]], bool]


@dataclass
class JoinState:
    """Windowed-join state kept by a join node for one (s, t) producer pair.

    ``source_window`` buffers tuples from the source producer and
    ``target_window`` from the target producer.  ``probe`` implements the
    push-based windowed join: a new tuple from one side is joined against the
    buffered window of the other side, then inserted into its own window.
    """

    window_size: int
    source_id: int
    target_id: int
    source_window: TupleWindow = field(init=False)
    target_window: TupleWindow = field(init=False)
    results_produced: int = 0

    def __post_init__(self) -> None:
        self.source_window = TupleWindow(self.window_size)
        self.target_window = TupleWindow(self.window_size)

    def probe(
        self,
        from_source: bool,
        new_tuple: WindowedTuple,
        join_predicate: JoinPredicate,
    ) -> List[Tuple[WindowedTuple, WindowedTuple]]:
        """Join *new_tuple* against the opposite window and buffer it.

        Returns the list of (source_tuple, target_tuple) result pairs.
        """
        results: List[Tuple[WindowedTuple, WindowedTuple]] = []
        new_values = new_tuple.values
        if from_source:
            own, other = self.source_window, self.target_window
            for buffered in other._tuples:
                if join_predicate(new_values, buffered.values):
                    results.append((new_tuple, buffered))
        else:
            own, other = self.target_window, self.source_window
            for buffered in other._tuples:
                if join_predicate(buffered.values, new_values):
                    results.append((buffered, new_tuple))
        own._tuples.append(new_tuple)  # bounded deque: evicts the oldest
        self.results_produced += len(results)
        return results

    # -- migration support (Section 6) -------------------------------------
    def export_state(self) -> Dict[str, List[WindowedTuple]]:
        return {
            "source": self.source_window.export_state(),
            "target": self.target_window.export_state(),
        }

    def import_state(self, state: Dict[str, List[WindowedTuple]]) -> None:
        self.source_window.import_state(state.get("source", []))
        self.target_window.import_state(state.get("target", []))

    def buffered_tuple_count(self) -> int:
        return len(self.source_window) + len(self.target_window)

# ---------------------------------------------------------------------------
# the columnar store
# ---------------------------------------------------------------------------

Columns = Dict[str, np.ndarray]
Pair = Tuple[int, int]
#: One buffered tuple as the store hands it back: the attribute values the
#: join clauses read, and the sampling cycle the tuple was taken in.
BufferedTuple = Tuple[Dict[str, Any], int]


class BlockArrivals(NamedTuple):
    """One relation's tuples over a block of cycles, at most one per row and
    cycle (:meth:`WindowStore.join_block`)."""

    steps: np.ndarray                 # the tuple's cycle, as an offset in the block
    rows: np.ndarray                  # the window row it probes
    values: Columns                   # its join attributes, aligned with rows
    inserted: Optional[np.ndarray]    # which are buffered after probing (None: all)

    def buffered(self) -> "BlockArrivals":
        """The tuples that are buffered after probing."""
        mask = self.inserted
        if mask is None:
            return self
        return BlockArrivals(self.steps[mask], self.rows[mask],
                             {a: column[mask] for a, column in self.values.items()},
                             None)


def _is_numeric(columns: Columns) -> bool:
    return all(column.dtype != object for column in columns.values())


class _Rings:
    """One side's tuples for every row: ``[row, slot]`` ring buffers.

    ``count[row]`` is how many tuples the row has taken since it was last
    cleared: tuple ``n`` lives in slot ``n % size``, so a row occupies slots
    ``0 .. min(count, size) - 1`` and its oldest tuple, once full, is in
    slot ``count % size``.  Value columns take the dtype of what is inserted
    (widening if later values need it), so numeric attributes stay numeric
    and anything else is kept as Python objects.
    """

    __slots__ = ("size", "columns", "cycles", "count")

    def __init__(self, rows: int, size: int, attributes: Sequence[str]) -> None:
        self.size = size
        self.columns: Dict[str, Optional[np.ndarray]] = dict.fromkeys(attributes)
        self.cycles = np.zeros((rows, size), dtype=np.int64)
        self.count = np.zeros(rows, dtype=np.int64)

    def insert(self, rows: np.ndarray, values: Columns, cycle: int) -> int:
        """Buffer one tuple per row (rows distinct); returns how many rows
        grew, i.e. did not evict."""
        count = self.count[rows]
        self._write(rows, count % self.size, values, cycle)
        self.count[rows] = count + 1
        return int(np.count_nonzero(count < self.size))

    def append(self, rows: np.ndarray, steps: np.ndarray, values: Columns,
               first_cycle: int) -> np.ndarray:
        """Buffer a block's tuples, any number per row, in ``(row, step)``
        order (*steps* are cycle offsets from *first_cycle*, distinct within
        a row).  Only each row's last ``size`` tuples are written.  Returns
        which tuples grew their row, in the order given."""
        order = np.lexsort((steps, rows))
        rows, steps = rows[order], steps[order]
        firsts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        lengths = np.diff(np.r_[firsts, rows.size])
        within = np.arange(rows.size) - np.repeat(firsts, lengths)
        number = self.count[rows] + within
        kept = within >= np.repeat(lengths, lengths) - self.size
        self._write(rows[kept], number[kept] % self.size,
                    {a: column[order][kept] for a, column in values.items()},
                    first_cycle + steps[kept])
        self.count[rows[firsts]] += lengths
        grew = np.empty(rows.size, dtype=bool)
        grew[order] = number < self.size
        return grew

    def _write(self, rows: np.ndarray, slots: np.ndarray, values: Columns,
               cycles) -> None:
        for attribute, ring in self.columns.items():
            column = values[attribute]
            if ring is None:
                ring = np.zeros(self.cycles.shape, dtype=column.dtype)
                self.columns[attribute] = ring
            elif ring.dtype != column.dtype:
                widened = np.result_type(ring.dtype, column.dtype)
                if widened != ring.dtype:
                    ring = self.columns[attribute] = ring.astype(widened)
            ring[rows, slots] = column
        self.cycles[rows, slots] = cycles

    def oldest_first(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Every buffered tuple of *rows* (distinct) as ``(row, slot)``
        arrays: row after row, each row's tuples oldest first."""
        held = np.minimum(self.count[rows], self.size)
        owners = np.repeat(rows, held)
        starts = np.repeat(self.count[rows] - held, held)
        offsets = np.arange(owners.size) - np.repeat(np.cumsum(held) - held, held)
        return owners, (starts + offsets) % self.size

    def contents(self, row: int) -> List[BufferedTuple]:
        """The row's buffered tuples, oldest first."""
        count = int(self.count[row])
        if not count:
            return []
        size = self.size
        slots = range(count) if count < size else [
            (count + offset) % size for offset in range(size)
        ]
        cycles = self.cycles[row].tolist()
        values = {a: ring[row].tolist() for a, ring in self.columns.items()}
        return [
            ({a: column[slot] for a, column in values.items()}, cycles[slot])
            for slot in slots
        ]

    def clear(self, row: int) -> int:
        dropped = min(int(self.count[row]), self.size)
        self.count[row] = 0
        return dropped


class WindowStore:
    """The join windows of every (s, t) pair of one strategy, as columns.

    Rows are pairs.  Each side keeps, per row, the last ``window_size``
    delivered tuples: one ring column per attribute the dynamic join clauses
    read on that side, plus the tuple's cycle.  A sampling cycle is, per
    relation, one :meth:`match` of the arriving tuples against the opposite
    side followed by one :meth:`insert` of those that were delivered -- the
    push-based windowed join of :class:`JoinState` for all pairs at once;
    :meth:`join_block` does the same for a block of cycles in one pass.

    :meth:`match` runs the join clauses as an array kernel over the rings
    when the clauses compile to one and every column involved is numeric
    (:func:`repro.query.expressions.as_column`); otherwise it runs the
    scalar closure slot by slot over the same rings.

    With *keep_recent* a second set of rings remembers what each producer
    last sent per pair, filled by the same inserts but untouched by
    :meth:`reset_row`: what failure recovery replays into a fresh window.
    """

    def __init__(self, pairs: Sequence[Pair], window_size: int, kernel,
                 keep_recent: bool = False) -> None:
        if window_size < 1:
            raise ValueError("window size must be at least 1")
        self.window_size = window_size
        self.kernel = kernel
        self.row_of: Dict[Pair, int] = {pair: row for row, pair in enumerate(pairs)}
        attributes = (kernel.source_attributes, kernel.target_attributes)
        rows = len(self.row_of)
        self._window = tuple(_Rings(rows, window_size, a) for a in attributes)
        self._recent = (
            tuple(_Rings(rows, window_size, a) for a in attributes)
            if keep_recent else None
        )
        self._slot_ids = np.arange(window_size)
        #: tuples buffered over all rows and both sides (the storage cost)
        self.total = 0

    def __len__(self) -> int:
        return len(self.row_of)

    # -- the cycle: match, then insert ---------------------------------------
    def match(self, from_source: bool, rows: np.ndarray, values: Columns) -> np.ndarray:
        """Join one arriving tuple per row against the opposite side.

        ``values[attribute][i]`` belongs to the tuple arriving at
        ``rows[i]``.  Returns the ``[len(rows), window_size]`` hit mask over
        the opposite rings' slots; nothing is buffered.
        """
        other = self._window[1 if from_source else 0]
        hits = self._slot_ids < other.count[rows][:, None]
        if not hits.any():
            return hits
        buffered = {a: ring[rows] for a, ring in other.columns.items()}
        return self._join(from_source, values, buffered, hits)

    def _join(self, from_source: bool, values: Columns, buffered: Columns,
              hits: np.ndarray) -> np.ndarray:
        """Narrow *hits* (``[arrival, slot]``: which buffered tuples are
        there) to those the join clauses accept: the array kernel when the
        clauses compile to one and every column is numeric, the scalar
        closure slot by slot otherwise."""
        kernel = self.kernel
        if kernel.array is not None and _is_numeric(values) and _is_numeric(buffered):
            arriving = {a: column[:, None] for a, column in values.items()}
            joined = (kernel.array(arriving, buffered) if from_source
                      else kernel.array(buffered, arriving))
            return np.logical_and(hits, joined, out=hits)
        arriving_rows = row_dicts(values, hits.shape[0])
        slot_values = {a: column.tolist() for a, column in buffered.items()}
        scalar = kernel.scalar
        for index, slot in zip(*(axis.tolist() for axis in np.nonzero(hits))):
            old = {a: column[index][slot] for a, column in slot_values.items()}
            new = arriving_rows[index]
            if not (scalar(new, old) if from_source else scalar(old, new)):
                hits[index, slot] = False
        return hits

    def insert(self, from_source: bool, rows: np.ndarray, values: Columns,
               cycle: int, mask: Optional[np.ndarray] = None) -> None:
        """Buffer the arriving tuples (those under *mask*), evicting each
        row's oldest tuple where the row is full.  Rows must be distinct."""
        if mask is not None:
            rows = rows[mask]
            values = {a: column[mask] for a, column in values.items()}
        if not rows.size:
            return
        side = 0 if from_source else 1
        self.total += self._window[side].insert(rows, values, cycle)
        if self._recent is not None:
            self._recent[side].insert(rows, values, cycle)

    # -- a block of cycles at once ---------------------------------------------
    def join_block(self, cycles: range, source: "BlockArrivals",
                   target: "BlockArrivals", source_first: bool
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`match` then :meth:`insert`, per relation and cycle, for a
        whole block of cycles in one band join over the cycle axis.

        Equal to the sequential calls cycle by cycle, *source_first*
        deciding which relation goes first within a cycle: a tuple of
        cycle ``c`` of the first relation sees the last ``window_size``
        buffered tuples of the other relation from cycles before ``c``, a
        tuple of the second relation those up to and including ``c``.  Each
        arrival is joined against a ``[arrival, window_size]`` gather of its
        row's sequence -- the ring's tuples, then the block's buffered ones
        -- and the rings end holding each row's last tuples.  Returns the
        per-arrival result counts of both relations and ``total`` after
        each cycle of the block.
        """
        width = len(cycles) + 1
        kept = tuple(side.buffered() for side in (source, target))
        counts = [
            self._band(side, arrivals, kept[1 - side], width,
                       first=(side == 0) == source_first)
            for side, arrivals in enumerate((source, target))
        ]
        growth = np.zeros(len(cycles), dtype=np.int64)
        for side, arrivals in enumerate(kept):
            if not arrivals.rows.size:
                continue
            grew = self._window[side].append(arrivals.rows, arrivals.steps,
                                             arrivals.values, cycles.start)
            growth += np.bincount(arrivals.steps[grew], minlength=len(cycles))
            if self._recent is not None:
                self._recent[side].append(arrivals.rows, arrivals.steps,
                                          arrivals.values, cycles.start)
        totals = self.total + np.cumsum(growth)
        self.total = int(totals[-1])
        return counts[0], counts[1], totals

    def _band(self, side: int, arrivals: "BlockArrivals",
              opposite: "BlockArrivals", width: int, first: bool) -> np.ndarray:
        """Result counts of one relation's block arrivals against the other
        side: its rings as they stand, then *opposite* (its buffered block
        tuples), up to the arrival's cycle."""
        if not arrivals.rows.size:
            return np.zeros(0, dtype=np.int64)
        rings = self._window[1 - side]
        ring_rows, slots = rings.oldest_first(np.unique(arrivals.rows))
        rows = np.concatenate([ring_rows, opposite.rows])
        steps = np.concatenate([np.full(ring_rows.size, -1), opposite.steps])
        keys = rows * width + steps + 1
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        probe = arrivals.rows * width
        ends = np.searchsorted(keys, probe + arrivals.steps + (1 if first else 2))
        at = ends[:, None] - self.window_size + self._slot_ids
        hits = at >= np.searchsorted(keys, probe)[:, None]
        if not hits.any():
            return np.zeros(arrivals.rows.size, dtype=np.int64)
        np.maximum(at, 0, out=at)
        buffered = {}
        for attribute, ring in rings.columns.items():
            parts = [column for column in (
                None if ring is None else ring[ring_rows, slots],
                opposite.values[attribute],
            ) if column is not None and column.size]
            buffered[attribute] = np.concatenate(parts)[order][at]
        return self._join(side == 0, arrivals.values, buffered, hits).sum(axis=1)

    # -- one row at a time: recovery and window hand-off -----------------------
    def probe_row(self, row: int, from_source: bool, values: Dict[str, Any],
                  cycle: int, probe: bool = True) -> List[int]:
        """:meth:`JoinState.probe` for one row and one replayed tuple: join
        against the opposite side, buffer, and return the matched tuples'
        cycles (oldest first).  A tuple that probes reaches the row for the
        first time, so it also enters the sent-tuple memory.  Without
        *probe* the tuple was joined, and remembered, before: it is only
        buffered."""
        scalar = self.kernel.scalar
        side = 0 if from_source else 1
        if not probe:
            matched = []
        else:
            matched = [
                old_cycle for old, old_cycle in self._window[1 - side].contents(row)
                if (scalar(values, old) if from_source else scalar(old, values))
            ]
        rows = np.array([row])
        columns = {a: as_column([value]) for a, value in values.items()}
        self.total += self._window[side].insert(rows, columns, cycle)
        if probe and self._recent is not None:
            self._recent[side].insert(rows, columns, cycle)
        return matched

    def reset_row(self, row: int) -> None:
        """Start the row's window afresh (its join moved to a new node)."""
        for rings in self._window:
            self.total -= rings.clear(row)

    def buffered(self, row: int) -> int:
        size = self.window_size
        return sum(min(int(rings.count[row]), size) for rings in self._window)

    def recent(self, row: int, from_source: bool) -> List[BufferedTuple]:
        """The last ``window_size`` tuples that side's producer got through
        to the row, oldest first (needs ``keep_recent``)."""
        return self._recent[0 if from_source else 1].contents(row)


def row_dicts(columns: Columns, count: int) -> List[Dict[str, Any]]:
    """Column-major values as one attribute dict per row."""
    lists = {a: column.tolist() for a, column in columns.items()}
    return [{a: values[i] for a, values in lists.items()} for i in range(count)]
