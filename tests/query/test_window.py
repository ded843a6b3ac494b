"""Tests for tuple windows and per-pair join state."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import JoinState, TupleWindow, WindowedTuple


def _wt(producer, cycle, **values):
    return WindowedTuple(producer_id=producer, cycle=cycle, values=values)


class TestTupleWindow:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            TupleWindow(0)

    def test_insert_and_eviction(self):
        window = TupleWindow(2)
        assert window.insert(_wt(1, 0, u=1)) is None
        assert window.insert(_wt(1, 1, u=2)) is None
        evicted = window.insert(_wt(1, 2, u=3))
        assert evicted is not None
        assert evicted.cycle == 0
        assert len(window) == 2
        assert [t.values["u"] for t in window.contents()] == [2, 3]

    def test_clear_and_empty(self):
        window = TupleWindow(3)
        assert window.is_empty()
        window.insert(_wt(1, 0, u=1))
        window.clear()
        assert window.is_empty()

    def test_export_import_roundtrip(self):
        window = TupleWindow(3)
        for cycle in range(3):
            window.insert(_wt(1, cycle, u=cycle))
        state = window.export_state()
        replacement = TupleWindow(3)
        replacement.import_state(state)
        assert [t.cycle for t in replacement.contents()] == [0, 1, 2]

    def test_import_truncates_to_window_size(self):
        window = TupleWindow(2)
        window.import_state([_wt(1, c, u=c) for c in range(5)])
        assert [t.cycle for t in window.contents()] == [3, 4]


class TestJoinState:
    def join_on_u(self, s, t):
        return s["u"] == t["u"]

    def test_probe_joins_against_opposite_window(self):
        state = JoinState(window_size=3, source_id=10, target_id=20)
        # Buffer two target tuples, then probe with a matching source tuple.
        state.probe(False, _wt(20, 0, u=7), self.join_on_u)
        state.probe(False, _wt(20, 1, u=8), self.join_on_u)
        results = state.probe(True, _wt(10, 2, u=7), self.join_on_u)
        assert len(results) == 1
        source_tuple, target_tuple = results[0]
        assert source_tuple.producer_id == 10
        assert target_tuple.producer_id == 20
        assert state.results_produced == 1

    def test_probe_does_not_join_own_side(self):
        state = JoinState(window_size=3, source_id=10, target_id=20)
        state.probe(True, _wt(10, 0, u=7), self.join_on_u)
        results = state.probe(True, _wt(10, 1, u=7), self.join_on_u)
        assert results == []

    def test_window_eviction_limits_matches(self):
        state = JoinState(window_size=1, source_id=1, target_id=2)
        state.probe(False, _wt(2, 0, u=5), self.join_on_u)
        state.probe(False, _wt(2, 1, u=6), self.join_on_u)  # evicts u=5
        assert state.probe(True, _wt(1, 2, u=5), self.join_on_u) == []
        assert state.probe(True, _wt(1, 3, u=6), self.join_on_u) != []

    def test_export_import_preserves_windows(self):
        state = JoinState(window_size=2, source_id=1, target_id=2)
        state.probe(True, _wt(1, 0, u=1), self.join_on_u)
        state.probe(False, _wt(2, 0, u=1), self.join_on_u)
        exported = state.export_state()
        fresh = JoinState(window_size=2, source_id=1, target_id=2)
        fresh.import_state(exported)
        assert fresh.buffered_tuple_count() == 2
        # The transferred window still joins correctly.
        assert fresh.probe(True, _wt(1, 1, u=1), self.join_on_u)


class TestWindowProperties:
    @given(st.integers(1, 6), st.lists(st.integers(0, 100), max_size=40))
    @settings(max_examples=50)
    def test_window_never_exceeds_size(self, size, cycles):
        window = TupleWindow(size)
        for index, value in enumerate(cycles):
            window.insert(_wt(1, index, u=value))
            assert len(window) <= size
        # The window retains the most recent tuples.
        expected = [v for v in cycles][-size:]
        assert [t.values["u"] for t in window.contents()] == expected

    @given(st.integers(1, 4), st.lists(st.tuples(st.booleans(), st.integers(0, 3)), max_size=30))
    @settings(max_examples=50)
    def test_result_count_matches_bruteforce(self, window_size, events):
        """The windowed join produces exactly the pairs a brute-force replay would."""
        state = JoinState(window_size=window_size, source_id=1, target_id=2)
        source_buffer, target_buffer = [], []
        expected = 0
        for cycle, (from_source, value) in enumerate(events):
            new = _wt(1 if from_source else 2, cycle, u=value)
            opposite = target_buffer if from_source else source_buffer
            expected += sum(1 for other in opposite[-window_size:] if other.values["u"] == value)
            results = state.probe(from_source, new, lambda s, t: s["u"] == t["u"])
            (source_buffer if from_source else target_buffer).append(new)
            assert len(results) == sum(
                1 for other in opposite[-window_size:] if other.values["u"] == value
            ) if opposite else len(results) == 0
        assert state.results_produced == expected
