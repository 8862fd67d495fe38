"""Tests for the LRU buffer pool, including a model-based property test."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.buffer import BufferPool


def access(pool, key):
    """Read one page through the pool, charged to its own stats;
    ``True`` on a hit."""
    return pool.settle((key,), pool.stats) == 1


class TestBasics:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(capacity=-1)

    def test_first_access_is_miss(self):
        pool = BufferPool(capacity=4)
        assert access(pool, ("f", 0)) is False

    def test_second_access_is_hit(self):
        pool = BufferPool(capacity=4)
        access(pool, ("f", 0))
        assert access(pool, ("f", 0)) is True

    def test_zero_capacity_never_hits(self):
        pool = BufferPool(capacity=0)
        access(pool, ("f", 0))
        assert access(pool, ("f", 0)) is False
        assert len(pool) == 0

    def test_lru_eviction_order(self):
        pool = BufferPool(capacity=2)
        access(pool, ("f", 0))
        access(pool, ("f", 1))
        access(pool, ("f", 0))  # 0 becomes most recent
        access(pool, ("f", 2))  # evicts 1
        assert ("f", 1) not in pool
        assert access(pool, ("f", 0)) is True
        assert access(pool, ("f", 1)) is False

    def test_resize_down_evicts_lru(self):
        pool = BufferPool(capacity=4)
        for i in range(4):
            access(pool, ("f", i))
        pool.resize(2)
        assert len(pool) == 2
        assert ("f", 3) in pool and ("f", 2) in pool
        with pytest.raises(ValueError):
            pool.resize(-3)

    def test_clear(self):
        pool = BufferPool(capacity=4)
        access(pool, ("f", 0))
        pool.clear()
        assert len(pool) == 0
        assert access(pool, ("f", 0)) is False


class _ReferenceLRU:
    """An independent reference implementation for model-based testing."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.data = OrderedDict()

    def access(self, key):
        if self.capacity == 0:
            return False
        if key in self.data:
            self.data.move_to_end(key)
            return True
        self.data[key] = None
        if len(self.data) > self.capacity:
            self.data.popitem(last=False)
        return False


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 6),
    st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 9)), max_size=120),
)
def test_against_reference_model(capacity, accesses):
    pool = BufferPool(capacity=capacity)
    model = _ReferenceLRU(capacity)
    for key in accesses:
        assert access(pool, key) == model.access(key)
    assert len(pool) == len(model.data)
