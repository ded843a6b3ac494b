"""Tests for message size accounting."""

from repro.network import MessageSizes


class TestMessageSizes:
    def test_data_tuple_size(self):
        sizes = MessageSizes()
        assert sizes.data_tuple(1) == 11 + 2 + 2
        assert sizes.data_tuple(3) == 11 + 2 + 6

    def test_result_tuple_size(self):
        sizes = MessageSizes()
        assert sizes.result_tuple() == 11 + 2 + 4

    def test_explore_size_includes_path_and_summary(self):
        sizes = MessageSizes()
        assert sizes.explore(path_len=5) == 11 + 5
        assert sizes.explore(path_len=5, num_summary_bytes=8) == 11 + 5 + 8

    def test_control_size(self):
        assert MessageSizes().control(num_fields=3) == 11 + 6
