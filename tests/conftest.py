"""Fixtures shared across the test packages."""

from contextlib import contextmanager

import pytest

from repro.joins.executor import JoinExecutor


@pytest.fixture
def per_tuple_cycles(monkeypatch):
    """A context manager under which every :class:`JoinExecutor` runs its
    cycles on the per-tuple path (``execute_cycle``), never on the
    batch-cycle kernel: the reference the kernel is held to."""
    @contextmanager
    def per_tuple():
        with monkeypatch.context() as patch:
            patch.setattr(JoinExecutor, "_cycle_batcher", lambda self: None)
            yield
    return per_tuple


@pytest.fixture
def per_cycle_kernel(monkeypatch):
    """A context manager under which every :class:`JoinExecutor` steps the
    batch-cycle kernel one cycle at a time: the block rule held to one
    cycle, the reference a block is held to."""
    @contextmanager
    def per_cycle():
        with monkeypatch.context() as patch:
            patch.setattr(JoinExecutor, "_block_length", lambda self, cycle, end: 1)
            yield
    return per_cycle
