"""Tests for the bounding-rectangle summaries (``repro.summaries.rect``).

``RectSummary`` is what a routing table's radius probe reads; its object
build is the semantic index's test oracle,
``tests/summaries/object_summaries.py::ObjectRectSummary``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.summaries import BloomFilterSummary, Rect, RectSummary
from tests.summaries.object_summaries import ObjectRectSummary

coords = st.floats(min_value=-1000, max_value=1000, allow_nan=False)
points = st.tuples(coords, coords)


class TestRect:
    def test_validation(self):
        with pytest.raises(ValueError):
            Rect(5, 0, 1, 1)

    def test_contains(self):
        # Containment is inclusive at the border, for the oracle's object
        # summary and for a zero-radius probe of the summary the table keeps.
        summary = RectSummary()
        summary.rect = Rect(0, 0, 10, 10)
        oracle = ObjectRectSummary(Rect(0, 0, 10, 10))
        for point, inside in (((5, 5), True), ((10, 0), True), ((11, 5), False)):
            assert oracle.might_contain(point) == inside
            assert summary.intersects_radius(point, 0.0) == inside

    def test_expand(self):
        merged = ObjectRectSummary(Rect(0, 0, 1, 1)).merge(ObjectRectSummary(Rect(2, 2, 3, 3)))
        assert merged.rect == Rect(0, 0, 3, 3)

    def test_min_distance(self):
        rect = Rect(0, 0, 10, 10)
        assert rect.min_distance((5, 5)) == 0.0
        assert rect.min_distance((13, 14)) == pytest.approx(5.0)


class TestRectSummary:
    @given(st.lists(points, max_size=20), st.lists(points, max_size=20),
           points, st.floats(min_value=0, max_value=500))
    @settings(max_examples=60)
    def test_matches_the_points_bounding_rectangle(self, left, right, center, radius):
        summary = ObjectRectSummary()
        summary.add_all(left)
        other = ObjectRectSummary()
        other.add_all(right)
        merged = summary.merge(other)
        points = left + right
        expected = None
        if points:
            xs, ys = zip(*points)
            expected = Rect(min(xs), min(ys), max(xs), max(ys))
        assert merged.rect == expected
        assert merged.intersects_radius(center, radius) == (
            expected is not None and expected.min_distance(center) <= radius)
        # containment is the rectangle's: no false negatives
        assert all(merged.might_contain(p) for p in left + right)
        assert merged.copy().rect == merged.rect
        assert merged.size_bytes() == 8

    def test_merge_refuses_other_summaries(self):
        with pytest.raises(TypeError):
            ObjectRectSummary().merge(BloomFilterSummary())

    def test_empty(self):
        summary = RectSummary()
        assert summary.rect is None
        assert not ObjectRectSummary().might_contain((0, 0))
        assert not summary.intersects_radius((0, 0), 100)

    def test_radius_pruning(self):
        summary = ObjectRectSummary()
        summary.add_all([(100.0, 100.0), (105.0, 102.0)])
        assert summary.intersects_radius((100.0, 100.0), 1.0)
        assert summary.intersects_radius((110.0, 101.0), 5.0)
        assert not summary.intersects_radius((0.0, 0.0), 10.0)

    def test_invalid_point(self):
        with pytest.raises(TypeError):
            ObjectRectSummary().add(7)
        with pytest.raises(TypeError):
            ObjectRectSummary().add((1.0, 2.0, 3.0))

    def test_single_point(self):
        summary = ObjectRectSummary()
        summary.add([3, 4])
        assert summary.rect == Rect(3.0, 4.0, 3.0, 4.0)
        assert summary.might_contain((3.0, 4.0))
        assert not summary.might_contain((3.0, 4.01))
        assert summary.intersects_radius((0.0, 0.0), 5.0)
        assert not summary.intersects_radius((0.0, 0.0), 4.99)

    def test_copy_is_independent(self):
        summary = ObjectRectSummary()
        summary.add((0.0, 0.0))
        clone = summary.copy()
        clone.add((10.0, -5.0))
        assert summary.rect == Rect(0.0, 0.0, 0.0, 0.0)
        assert clone.rect == Rect(0.0, -5.0, 10.0, 0.0)

    def test_merge_with_empty(self):
        summary = ObjectRectSummary(Rect(0.0, 0.0, 2.0, 1.0))
        assert summary.merge(RectSummary()).rect == summary.rect
        assert ObjectRectSummary().merge(summary).rect == summary.rect
        assert ObjectRectSummary().merge(RectSummary()).rect is None

    def test_merge_leaves_both_inputs_unchanged(self):
        left = ObjectRectSummary(Rect(0.0, 0.0, 1.0, 1.0))
        right = ObjectRectSummary(Rect(5.0, 5.0, 9.0, 6.0))
        merged = left.merge(right)
        assert merged.rect == Rect(0.0, 0.0, 9.0, 6.0)
        assert left.rect == Rect(0.0, 0.0, 1.0, 1.0)
        assert right.rect == Rect(5.0, 5.0, 9.0, 6.0)
