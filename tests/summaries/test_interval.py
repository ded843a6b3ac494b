"""Tests for interval summaries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.summaries import IntervalSummary


class TestBasics:
    def test_empty(self):
        interval = IntervalSummary()
        assert interval.is_empty()
        assert not interval.might_contain(0)

    def test_single_value(self):
        interval = IntervalSummary()
        interval.add(5)
        assert interval.might_contain(5)
        assert not interval.might_contain(4.99)
        assert interval.lo == interval.hi == 5.0

    def test_grows_to_cover(self):
        interval = IntervalSummary()
        interval.add_all([3, -2, 7])
        assert interval.lo == -2.0
        assert interval.hi == 7.0
        assert interval.might_contain(0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            IntervalSummary(lo=1.0, hi=None)
        with pytest.raises(ValueError):
            IntervalSummary(lo=5.0, hi=1.0)

    def test_overlaps(self):
        interval = IntervalSummary(lo=2.0, hi=4.0)
        assert interval.overlaps(3.0, 10.0)
        assert interval.overlaps(0.0, 2.0)
        assert not interval.overlaps(4.5, 9.0)
        assert not IntervalSummary().overlaps(0.0, 1.0)

    def test_size_bytes_and_copy(self):
        interval = IntervalSummary(lo=0.0, hi=1.0)
        assert interval.size_bytes() == 4
        clone = interval.copy()
        clone.add(10)
        assert interval.hi == 1.0
        assert clone.hi == 10.0


class TestMerge:
    def test_merge_covers_both(self):
        left = IntervalSummary(lo=0.0, hi=2.0)
        right = IntervalSummary(lo=5.0, hi=9.0)
        merged = left.merge(right)
        assert merged.lo == 0.0
        assert merged.hi == 9.0

    def test_merge_with_empty(self):
        left = IntervalSummary(lo=0.0, hi=2.0)
        assert left.merge(IntervalSummary()).lo == 0.0
        assert IntervalSummary().merge(left).hi == 2.0

    def test_merge_type_mismatch(self):
        from repro.summaries import BloomFilterSummary

        with pytest.raises(TypeError):
            IntervalSummary().merge(BloomFilterSummary())


class TestProperties:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @settings(max_examples=60)
    def test_contains_everything_added(self, values):
        interval = IntervalSummary()
        interval.add_all(values)
        assert all(interval.might_contain(v) for v in values)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=25),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=25),
    )
    @settings(max_examples=40)
    def test_merge_equivalent_to_combined_add(self, left_values, right_values):
        left = IntervalSummary()
        left.add_all(left_values)
        right = IntervalSummary()
        right.add_all(right_values)
        merged = left.merge(right)

        combined = IntervalSummary()
        combined.add_all(left_values + right_values)
        assert merged.lo == combined.lo
        assert merged.hi == combined.hi
