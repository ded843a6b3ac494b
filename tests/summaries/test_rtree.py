"""Tests for the bounding-rectangle summaries (``repro.summaries.rect``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.summaries import BloomFilterSummary, Rect, RectSummary

coords = st.floats(min_value=-1000, max_value=1000, allow_nan=False)
points = st.tuples(coords, coords)


class TestRect:
    def test_validation(self):
        with pytest.raises(ValueError):
            Rect(5, 0, 1, 1)

    def test_contains(self):
        rect = Rect(0, 0, 10, 10)
        assert rect.contains((5, 5))
        assert rect.contains((10, 0))
        assert not rect.contains((11, 5))

    def test_expand(self):
        rect = Rect(0, 0, 1, 1).expand(Rect(2, 2, 3, 3))
        assert rect == Rect(0, 0, 3, 3)

    def test_min_distance(self):
        rect = Rect(0, 0, 10, 10)
        assert rect.min_distance((5, 5)) == 0.0
        assert rect.min_distance((13, 14)) == pytest.approx(5.0)


class TestRectSummary:
    @given(st.lists(points, max_size=20), st.lists(points, max_size=20),
           points, st.floats(min_value=0, max_value=500))
    @settings(max_examples=60)
    def test_matches_the_points_bounding_rectangle(self, left, right, center, radius):
        summary = RectSummary()
        summary.add_all(left)
        other = RectSummary()
        other.add_all(right)
        merged = summary.merge(other)
        points = left + right
        expected = None
        if points:
            xs, ys = zip(*points)
            expected = Rect(min(xs), min(ys), max(xs), max(ys))
        assert merged.bounding_rect() == expected
        assert merged.is_empty() == (not points)
        assert merged.intersects_radius(center, radius) == (
            expected is not None and expected.min_distance(center) <= radius)
        # containment is the rectangle's: no false negatives
        assert all(merged.might_contain(p) for p in left + right)
        assert merged.copy().bounding_rect() == merged.bounding_rect()
        assert merged.size_bytes() == 8

    def test_merge_refuses_other_summaries(self):
        with pytest.raises(TypeError):
            RectSummary().merge(BloomFilterSummary())

    def test_empty(self):
        summary = RectSummary()
        assert summary.is_empty()
        assert not summary.might_contain((0, 0))
        assert summary.bounding_rect() is None
        assert not summary.intersects_radius((0, 0), 100)

    def test_radius_pruning(self):
        summary = RectSummary()
        summary.add_all([(100.0, 100.0), (105.0, 102.0)])
        assert summary.intersects_radius((100.0, 100.0), 1.0)
        assert summary.intersects_radius((110.0, 101.0), 5.0)
        assert not summary.intersects_radius((0.0, 0.0), 10.0)

    def test_invalid_point(self):
        with pytest.raises(TypeError):
            RectSummary().add(7)
        with pytest.raises(TypeError):
            RectSummary().add((1.0, 2.0, 3.0))

    def test_single_point(self):
        summary = RectSummary()
        summary.add([3, 4])
        assert summary.bounding_rect() == Rect(3.0, 4.0, 3.0, 4.0)
        assert summary.might_contain((3.0, 4.0))
        assert not summary.might_contain((3.0, 4.01))
        assert summary.intersects_radius((0.0, 0.0), 5.0)
        assert not summary.intersects_radius((0.0, 0.0), 4.99)

    def test_copy_is_independent(self):
        summary = RectSummary()
        summary.add((0.0, 0.0))
        clone = summary.copy()
        clone.add((10.0, -5.0))
        assert summary.bounding_rect() == Rect(0.0, 0.0, 0.0, 0.0)
        assert clone.bounding_rect() == Rect(0.0, -5.0, 10.0, 0.0)

    def test_merge_with_empty(self):
        summary = RectSummary(Rect(0.0, 0.0, 2.0, 1.0))
        assert summary.merge(RectSummary()).bounding_rect() == summary.bounding_rect()
        assert RectSummary().merge(summary).bounding_rect() == summary.bounding_rect()
        assert RectSummary().merge(RectSummary()).is_empty()

    def test_merge_leaves_both_inputs_unchanged(self):
        left = RectSummary(Rect(0.0, 0.0, 1.0, 1.0))
        right = RectSummary(Rect(5.0, 5.0, 9.0, 6.0))
        merged = left.merge(right)
        assert merged.bounding_rect() == Rect(0.0, 0.0, 9.0, 6.0)
        assert left.bounding_rect() == Rect(0.0, 0.0, 1.0, 1.0)
        assert right.bounding_rect() == Rect(5.0, 5.0, 9.0, 6.0)
