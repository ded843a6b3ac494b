"""The columnar window store against its scalar reference, ``JoinState``.

:class:`~repro.query.window.WindowStore` holds the windows of many pairs as
ring-buffer columns and joins a cycle's tuples with array kernels;
:class:`~repro.query.window.JoinState` is one pair, one tuple at a time.
Whatever the interleaving of bulk matches, masked inserts, row resets and
single-row probes, both must hold the same tuples and find the same matches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import JoinState, WindowStore, WindowedTuple, parse_query
from repro.query.window import BlockArrivals
from repro.query.analysis import analyze_query
from repro.query.expressions import ARRAY_INT_LIMIT, as_column


def join_kernel(clause):
    """The compiled dynamic join clauses of ``... WHERE <clause>``."""
    query = parse_query(
        f"SELECT S.id, T.id FROM S, T [windowsize=1 sampleinterval=100] WHERE {clause}"
    )
    return analyze_query(query).join_kernel()


#: value kind -> (join clause over attribute ``u``, the values tuples draw from)
KINDS = {
    "int": ("S.u = T.u", [0, 1, 2, 3]),
    "float": ("abs(S.u - T.u) > 1", [0.0, 0.5, 1.75, 3.25]),
    "wide-int": ("S.u < T.u", [0, 7, ARRAY_INT_LIMIT * 8, -ARRAY_INT_LIMIT * 8]),
    "mixed": ("S.u <= T.u + 1", [0, 1.5, 2, 3.0]),
    "tuple": ("S.u = T.u", [(0, 0), (0, 1), (1, 0)]),
    "hashed": ("hash(S.u) % 3 = hash(T.u) % 3", [0, 1, 2, 3, 4, 5]),
}


@st.composite
def scripts(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    values = st.sampled_from(KINDS[kind][1])
    rows = draw(st.integers(1, 4))
    arrival = st.tuples(st.integers(0, rows - 1), values, st.booleans())
    step = st.one_of(
        st.tuples(st.just("cycle"), st.booleans(),
                  st.lists(arrival, max_size=rows, unique_by=lambda a: a[0])),
        st.tuples(st.just("probe_row"), st.booleans(),
                  st.integers(0, rows - 1), values),
        st.tuples(st.just("reset"), st.integers(0, rows - 1)),
    )
    return kind, rows, draw(st.integers(1, 4)), draw(st.lists(step, max_size=25))


class Reference:
    """One :class:`JoinState` per row, driven like the store."""

    def __init__(self, rows, window_size, predicate):
        self.window_size, self.predicate = window_size, predicate
        self.states = [JoinState(window_size, 0, 1) for _ in range(rows)]

    def matches(self, row, from_source, value):
        """Cycles of the opposite-side tuples *value* joins, oldest first."""
        state = self.states[row]
        other = state.target_window if from_source else state.source_window
        new = {"u": value}
        return [
            old.cycle for old in other
            if (self.predicate(new, old.values) if from_source
                else self.predicate(old.values, new))
        ]

    def insert(self, row, from_source, value, cycle):
        state = self.states[row]
        own = state.source_window if from_source else state.target_window
        own.insert(WindowedTuple(producer_id=0, cycle=cycle, values={"u": value}))

    def probe(self, row, from_source, value, cycle):
        new = WindowedTuple(producer_id=0, cycle=cycle, values={"u": value})
        results = self.states[row].probe(from_source, new, self.predicate)
        return [(t if from_source else s).cycle for s, t in results]

    def reset(self, row):
        self.states[row] = JoinState(self.window_size, 0, 1)

    def window(self, row, from_source):
        state = self.states[row]
        window = state.source_window if from_source else state.target_window
        return [(t.values, t.cycle) for t in window]


def window(store, row, from_source):
    """One side of a store row's window, oldest first."""
    return store._window[0 if from_source else 1].contents(row)


def assert_same_state(store, reference, rows):
    total = 0
    for row in range(rows):
        for from_source in (True, False):
            assert window(store, row, from_source) == reference.window(row, from_source)
        buffered = reference.states[row].buffered_tuple_count()
        assert store.buffered(row) == buffered
        total += buffered
    assert store.total == total


@given(scripts())
@settings(max_examples=300, deadline=None)
def test_store_equals_join_state_under_any_interleaving(script):
    kind, rows, window_size, steps = script
    kernel = join_kernel(KINDS[kind][0])
    store = WindowStore([(row, -1) for row in range(rows)], window_size, kernel)
    reference = Reference(rows, window_size, kernel.scalar)
    for cycle, step in enumerate(steps):
        if step[0] == "cycle":
            _, from_source, arrivals = step
            if not arrivals:
                continue
            at = np.array([row for row, _, _ in arrivals])
            values = {"u": as_column([value for _, value, _ in arrivals])}
            delivered = np.array([ok for _, _, ok in arrivals])
            hits = store.match(from_source, at, values)
            # the match set: which buffered tuples (named by their cycle)
            slot_cycles = store._window[1 if from_source else 0].cycles[at]
            for i, (row, value, ok) in enumerate(arrivals):
                expected = reference.matches(row, from_source, value)
                assert sorted(slot_cycles[i][hits[i]].tolist()) == sorted(expected)
                if ok:
                    reference.insert(row, from_source, value, cycle)
            store.insert(from_source, at, values, cycle, mask=delivered)
        elif step[0] == "probe_row":
            _, from_source, row, value = step
            assert (store.probe_row(row, from_source, {"u": value}, cycle)
                    == reference.probe(row, from_source, value, cycle))
        else:
            store.reset_row(step[1])
            reference.reset(step[1])
        assert_same_state(store, reference, rows)


def test_numeric_columns_take_the_array_kernel_and_others_do_not():
    calls = []
    kernel = join_kernel("S.u = T.u")
    spy = kernel.__class__(
        kernel.source_attributes, kernel.target_attributes,
        scalar=lambda s, t: calls.append("scalar") or kernel.scalar(s, t),
        array=lambda s, t: calls.append("array") or kernel.array(s, t),
    )
    store = WindowStore([(0, 1), (2, 3)], 2, spy)
    rows = np.array([0, 1])
    store.insert(False, rows, {"u": as_column([5, 6])}, cycle=0)
    assert store.match(True, rows, {"u": as_column([5, 7])}).tolist() == [
        [True, False], [False, False]]
    assert calls == ["array"]
    # one tuple-valued arrival: the same rings, probed by the closure
    calls.clear()
    assert not store.match(True, rows, {"u": as_column([(5,), 6])})[0].any()
    assert set(calls) == {"scalar"}


def test_recent_tuples_survive_a_reset_and_only_probing_replays_enter_them():
    store = WindowStore([(0, 1)], 2, join_kernel("S.u = T.u"), keep_recent=True)
    row = np.array([0])
    for cycle, value in enumerate([4, 5, 6]):
        store.insert(True, row, {"u": as_column([value])}, cycle)
    store.insert(False, row, {"u": as_column([9])}, 3, mask=np.array([False]))
    assert store.recent(0, True) == [({"u": 5}, 1), ({"u": 6}, 2)]
    assert store.recent(0, False) == []          # the masked tuple never arrived
    store.reset_row(0)
    assert store.total == 0 and store.buffered(0) == 0
    # forwarded tuples rebuild the window: remembered already, never probed
    for value, cycle in store.recent(0, True):
        assert store.probe_row(0, True, value, cycle, probe=False) == []
    assert store.recent(0, True) == [({"u": 5}, 1), ({"u": 6}, 2)]
    # held tuples reach the row for the first time: they probe, and count
    # among the last tuples that got through
    assert store.probe_row(0, False, {"u": 6}, 7) == [2]
    assert store.probe_row(0, True, {"u": 6}, 8) == [7]
    assert store.recent(0, True) == [({"u": 6}, 2), ({"u": 6}, 8)]
    assert store.recent(0, False) == [({"u": 6}, 7)]
    assert window(store, 0, True) == [({"u": 6}, 2), ({"u": 6}, 8)]


def test_window_size_is_validated():
    with pytest.raises(ValueError):
        WindowStore([(0, 1)], 0, join_kernel("S.u = T.u"))


@st.composite
def blocks(draw):
    """A window store's pre-filled rings and one block of cycles to join:
    per relation, ``[cycle, row]`` arrival masks, values and delivery."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    values = st.sampled_from(KINDS[kind][1])
    rows = draw(st.integers(1, 4))
    cycles = draw(st.integers(1, 5))
    arrival = st.one_of(st.none(), st.tuples(values, st.booleans()))
    grid = st.lists(st.lists(arrival, min_size=rows, max_size=rows),
                    min_size=cycles, max_size=cycles)
    prefill = st.lists(st.tuples(st.booleans(), st.integers(0, rows - 1), values),
                       max_size=8)
    return (kind, rows, draw(st.integers(1, 3)), draw(prefill),
            draw(grid), draw(grid), draw(st.booleans()))


def _block_side(grid):
    """One relation's arrivals of a block, cycle-major, as array columns."""
    cells = [(step, row, cell) for step, cycle in enumerate(grid)
             for row, cell in enumerate(cycle) if cell is not None]
    return BlockArrivals(
        steps=np.array([step for step, _, _ in cells], dtype=np.int64),
        rows=np.array([row for _, row, _ in cells], dtype=np.int64),
        values={"u": as_column([value for _, _, (value, _) in cells])},
        inserted=np.array([ok for _, _, (_, ok) in cells], dtype=bool),
    )


@given(blocks())
@settings(max_examples=300, deadline=None)
def test_one_block_join_equals_its_cycles_one_by_one(block):
    """``join_block`` over K cycles agrees with K rounds of ``match`` /
    ``insert`` and with ``JoinState``: per-arrival counts, the rings each row
    ends with, and ``total`` after every cycle."""
    kind, rows, window_size, prefill, source_grid, target_grid, source_first = block
    kernel = join_kernel(KINDS[kind][0])
    pairs = [(row, -1) for row in range(rows)]
    stores = [WindowStore(pairs, window_size, kernel, keep_recent=True)
              for _ in range(2)]
    reference = Reference(rows, window_size, kernel.scalar)
    for cycle, (from_source, row, value) in enumerate(prefill):
        for store in stores:
            store.insert(from_source, np.array([row]), {"u": as_column([value])}, cycle)
        reference.insert(row, from_source, value, cycle)
    first = len(prefill)
    cycles = range(first, first + len(source_grid))
    blocked, stepped = stores
    source, target = _block_side(source_grid), _block_side(target_grid)
    source_counts, target_counts, totals = blocked.join_block(
        cycles, source, target, source_first)

    order = ((True, source_grid), (False, target_grid))
    if not source_first:
        order = order[::-1]
    expected = {True: [], False: []}
    totals_stepped = []
    for step, cycle in enumerate(cycles):
        for from_source, grid in order:
            cells = [(row, cell) for row, cell in enumerate(grid[step])
                     if cell is not None]
            if not cells:
                continue
            at = np.array([row for row, _ in cells])
            values = {"u": as_column([value for _, (value, _) in cells])}
            delivered = np.array([ok for _, (_, ok) in cells])
            counts = stepped.match(from_source, at, values).sum(axis=1)
            expected[from_source].extend(counts.tolist())
            for (row, (value, ok)), count in zip(cells, counts.tolist()):
                assert count == len(reference.matches(row, from_source, value))
                if ok:
                    reference.insert(row, from_source, value, cycle)
            stepped.insert(from_source, at, values, cycle, mask=delivered)
        totals_stepped.append(stepped.total)
    # arrivals are cycle-major in both, so the per-arrival orders agree
    assert source_counts.tolist() == expected[True]
    assert target_counts.tolist() == expected[False]
    assert totals.tolist() == totals_stepped
    for row in range(rows):
        for from_source in (True, False):
            assert (window(blocked, row, from_source)
                    == window(stepped, row, from_source))
            assert (blocked.recent(row, from_source)
                    == stepped.recent(row, from_source))
    assert_same_state(blocked, reference, rows)
