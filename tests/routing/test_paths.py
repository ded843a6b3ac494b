"""Tests for path-vector utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import (
    concatenate_paths,
    path_load_profile,
    path_quality_for_pairs,
)
from repro.routing.paths import strip_cycles


class TestPathOps:
    def test_concatenate(self):
        assert concatenate_paths([1, 2, 3], [3, 4]) == [1, 2, 3, 4]
        assert concatenate_paths([], [3, 4]) == [3, 4]
        assert concatenate_paths([1, 2], []) == [1, 2]

    def test_concatenate_mismatch(self):
        with pytest.raises(ValueError):
            concatenate_paths([1, 2], [3, 4])

    def test_strip_cycles(self):
        assert strip_cycles([1, 2, 3, 2, 4]) == [1, 2, 4]
        assert strip_cycles([1, 2, 3]) == [1, 2, 3]
        assert strip_cycles([]) == []
        assert strip_cycles([5, 5, 5]) == [5]


class TestPathQuality:
    def test_load_profile(self):
        load = path_load_profile([[1, 2, 3], [2, 3, 4]])
        assert load == {1: 1, 2: 2, 3: 2, 4: 1}

    def test_quality_metrics(self):
        quality = path_quality_for_pairs({(1, 3): [1, 2, 3], (4, 5): [4, 5]})
        assert quality.average_path_length == pytest.approx(1.5)
        assert quality.max_node_load == 1

    def test_quality_empty(self):
        quality = path_quality_for_pairs({})
        assert quality.average_path_length == 0.0
        assert quality.max_node_load == 0


class TestProperties:
    @given(st.lists(st.integers(0, 300), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_strip_cycles_no_repeats(self, path):
        cleaned = strip_cycles(path)
        assert len(cleaned) == len(set(cleaned))
        assert cleaned[0] == path[0]
        assert cleaned[-1] == path[-1]

    @given(st.lists(st.integers(0, 12), max_size=60))
    @settings(max_examples=200)
    def test_strip_cycles_equals_the_rebuild_every_node_body(self, path):
        # The former body: rebuilds its index map after every node.
        def reference(path):
            seen = {}
            out = []
            for node in path:
                if node in seen:
                    out = out[: seen[node] + 1]
                else:
                    seen[node] = len(out)
                    out.append(node)
                seen = {n: i for i, n in enumerate(out)}
            return out

        assert strip_cycles(path) == reference(path)
