"""Unit and property tests for Bloom filter summaries.

``BloomFilterSummary`` is what a routing table's probe reads; its object
build (``add`` / ``merge`` / ``copy``) is the semantic index's test oracle,
``tests/summaries/object_summaries.py::ObjectBloomFilter``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.summaries import BloomFilterSummary
from tests.summaries.object_summaries import ObjectBloomFilter


class TestBasics:
    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilterSummary(num_bits=64)
        assert not bloom.might_contain(42)
        assert 42 not in bloom

    def test_added_values_are_found(self):
        bloom = ObjectBloomFilter(num_bits=256)
        for value in range(20):
            bloom.add(value)
        for value in range(20):
            assert bloom.might_contain(value)

    def test_contains_operator(self):
        bloom = ObjectBloomFilter(num_bits=128, values=[1, 2, 3])
        assert 1 in bloom
        assert bloom._count == 3

    def test_string_and_int_values_do_not_collide_trivially(self):
        bloom = ObjectBloomFilter(num_bits=512)
        bloom.add("sensor-7")
        assert bloom.might_contain("sensor-7")
        assert not bloom.might_contain("sensor-8")

    def test_false_positive_rate_reasonable(self):
        bloom = ObjectBloomFilter(num_bits=1024, expected_items=50)
        for value in range(50):
            bloom.add(value)
        false_positives = sum(
            1 for probe in range(10_000, 11_000) if bloom.might_contain(probe)
        )
        assert false_positives < 100  # well under 10%

    def test_fill_ratio_monotone(self):
        # An add only sets bits: the fill ratio never falls and no set bit clears.
        bloom = ObjectBloomFilter(num_bits=64)
        previous_bits = bloom._bits
        for value in range(10):
            bloom.add(value)
            assert bloom._bits & previous_bits == previous_bits
            assert bin(bloom._bits).count("1") >= bin(previous_bits).count("1")
            previous_bits = bloom._bits

    def test_size_bytes(self):
        assert BloomFilterSummary(num_bits=64).size_bytes() == 8
        assert BloomFilterSummary(num_bits=65).size_bytes() == 9

    def test_copy_is_independent(self):
        bloom = ObjectBloomFilter(num_bits=64, values=[1])
        clone = bloom.copy()
        clone.add(2)
        assert clone.might_contain(2)
        # Original may report 2 only as a false positive; check counters instead.
        assert bloom._count == 1
        assert clone._count == 2


class TestMerge:
    def test_merge_is_union(self):
        left = ObjectBloomFilter(num_bits=256, values=[1, 2, 3])
        right = ObjectBloomFilter(num_bits=256, values=[10, 11])
        merged = left.merge(right)
        for value in (1, 2, 3, 10, 11):
            assert merged.might_contain(value)

    def test_merge_geometry_mismatch_rejected(self):
        left = ObjectBloomFilter(num_bits=64)
        right = BloomFilterSummary(num_bits=128)
        with pytest.raises(ValueError):
            left.merge(right)

    def test_merge_type_mismatch_rejected(self):
        from repro.summaries import RectSummary

        with pytest.raises(TypeError):
            ObjectBloomFilter(num_bits=64).merge(RectSummary())


class TestValidation:
    @pytest.mark.parametrize("bad_bits", [0, -1])
    def test_invalid_bits_rejected(self, bad_bits):
        with pytest.raises(ValueError):
            BloomFilterSummary(num_bits=bad_bits)

    def test_invalid_hashes_rejected(self):
        with pytest.raises(ValueError):
            BloomFilterSummary(num_bits=64, num_hashes=0)

    def test_invalid_expected_items_rejected(self):
        with pytest.raises(ValueError):
            BloomFilterSummary(num_bits=64, expected_items=0)


class TestProperties:
    @given(st.lists(st.integers(min_value=-(2**31), max_value=2**31), max_size=60))
    @settings(max_examples=60)
    def test_no_false_negatives(self, values):
        bloom = ObjectBloomFilter(num_bits=512, values=values)
        assert all(bloom.might_contain(v) for v in values)

    @given(
        st.lists(st.integers(0, 1000), max_size=30),
        st.lists(st.integers(0, 1000), max_size=30),
    )
    @settings(max_examples=40)
    def test_merge_preserves_membership(self, left_values, right_values):
        left = ObjectBloomFilter(num_bits=512, values=left_values)
        right = ObjectBloomFilter(num_bits=512, values=right_values)
        merged = left.merge(right)
        for value in left_values + right_values:
            assert merged.might_contain(value)

    @given(st.lists(st.text(max_size=12), max_size=30))
    @settings(max_examples=40)
    def test_strings_no_false_negatives(self, values):
        bloom = ObjectBloomFilter(num_bits=512, values=values)
        assert all(bloom.might_contain(v) for v in values)
