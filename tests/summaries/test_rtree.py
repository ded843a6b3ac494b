"""Tests for R-tree summaries."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.summaries import Rect, RectSummary, RTreeSummary

coords = st.floats(min_value=-1000, max_value=1000, allow_nan=False)
points = st.tuples(coords, coords)


class TestRect:
    def test_validation(self):
        with pytest.raises(ValueError):
            Rect(5, 0, 1, 1)

    def test_contains_and_intersects(self):
        rect = Rect(0, 0, 10, 10)
        assert rect.contains((5, 5))
        assert not rect.contains((11, 5))
        assert rect.intersects(Rect(9, 9, 20, 20))
        assert not rect.intersects(Rect(11, 11, 20, 20))

    def test_expand_and_area(self):
        rect = Rect(0, 0, 1, 1).expand(Rect(2, 2, 3, 3))
        assert rect == Rect(0, 0, 3, 3)
        assert rect.area() == 9.0
        assert Rect(0, 0, 1, 1).enlargement(Rect(2, 2, 3, 3)) == 8.0

    def test_min_distance(self):
        rect = Rect(0, 0, 10, 10)
        assert rect.min_distance((5, 5)) == 0.0
        assert rect.min_distance((13, 14)) == pytest.approx(5.0)


class TestRTree:
    def test_empty(self):
        tree = RTreeSummary()
        assert tree.is_empty()
        assert not tree.might_contain((0, 0))
        assert tree.bounding_rect() is None
        assert tree.query_radius((0, 0), 100) == []

    def test_insert_and_membership(self):
        tree = RTreeSummary(max_entries=4)
        pts = [(float(i), float(i % 7)) for i in range(50)]
        tree.add_all(pts)
        assert len(tree) == 50
        for p in pts:
            assert tree.might_contain(p)
        assert not tree.might_contain((999.0, 999.0))

    def test_query_rect(self):
        tree = RTreeSummary(max_entries=4)
        tree.add_all([(x, y) for x in range(10) for y in range(10)])
        found = tree.query_rect(Rect(2, 2, 4, 4))
        assert sorted(found) == sorted(
            [(float(x), float(y)) for x in range(2, 5) for y in range(2, 5)]
        )

    def test_query_radius(self):
        tree = RTreeSummary(max_entries=4)
        tree.add_all([(x, 0.0) for x in range(20)])
        found = tree.query_radius((5.0, 0.0), 2.5)
        assert sorted(found) == [(3.0, 0.0), (4.0, 0.0), (5.0, 0.0), (6.0, 0.0), (7.0, 0.0)]

    def test_intersects_radius_pruning(self):
        tree = RTreeSummary()
        tree.add_all([(100.0, 100.0), (105.0, 102.0)])
        assert tree.intersects_radius((100.0, 100.0), 1.0)
        assert not tree.intersects_radius((0.0, 0.0), 10.0)

    def test_merge(self):
        left = RTreeSummary(points=[(0.0, 0.0), (1.0, 1.0)])
        right = RTreeSummary(points=[(5.0, 5.0)])
        merged = left.merge(right)
        assert len(merged) == 3
        assert merged.might_contain((5.0, 5.0))

    def test_invalid_point(self):
        with pytest.raises(TypeError):
            RTreeSummary().add(7)

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            RTreeSummary(max_entries=1)

    def test_size_bytes_grows(self):
        small = RTreeSummary(max_entries=2, points=[(0.0, 0.0)])
        big = RTreeSummary(max_entries=2, points=[(float(i), float(i)) for i in range(30)])
        assert big.size_bytes() > small.size_bytes()


class TestRTreeProperties:
    @given(st.lists(points, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_no_false_negatives(self, pts):
        tree = RTreeSummary(max_entries=4)
        tree.add_all(pts)
        for p in pts:
            assert tree.might_contain((float(p[0]), float(p[1])))

    @given(st.lists(points, min_size=1, max_size=40), points, st.floats(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_radius_query_matches_bruteforce(self, pts, center, radius):
        tree = RTreeSummary(max_entries=4)
        tree.add_all(pts)
        expected = sorted(
            (float(x), float(y))
            for x, y in pts
            if math.dist((float(x), float(y)), center) <= radius
        )
        assert sorted(tree.query_radius(center, radius)) == expected


class TestRectSummary:
    @given(st.lists(points, max_size=20), st.lists(points, max_size=20),
           points, st.floats(min_value=0, max_value=500))
    @settings(max_examples=60)
    def test_matches_the_r_tree_root_rectangle(self, left, right, center, radius):
        summary = RectSummary()
        summary.add_all(left)
        other = RectSummary()
        other.add_all(right)
        merged = summary.merge(other)
        tree = RTreeSummary(max_entries=4, points=left + right)
        assert merged.bounding_rect() == tree.bounding_rect()
        assert merged.is_empty() == tree.is_empty()
        assert merged.intersects_radius(center, radius) == tree.intersects_radius(center, radius)
        # containment is the rectangle's: no false negatives
        assert all(merged.might_contain(p) for p in left + right)
        assert merged.copy().bounding_rect() == merged.bounding_rect()
        assert merged.size_bytes() == 8

    def test_merge_refuses_other_summaries(self):
        with pytest.raises(TypeError):
            RectSummary().merge(RTreeSummary())
