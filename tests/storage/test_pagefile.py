"""Tests for the simulated disk: pages, files, I/O accounting."""

import pytest

from repro.errors import StorageError
from repro.storage.pagefile import PAGE_SIZE, DiskManager


class TestPageFile:
    def test_allocate_and_read(self):
        disk = DiskManager(buffer_pages=4)
        f = disk.create_file("data", category="inverted")
        p0 = f.allocate([1, 2, 3])
        p1 = f.allocate({"x": 1})
        assert f.read(p0) == [1, 2, 3]
        assert f.read(p1) == {"x": 1}
        assert f.num_pages == 2
        assert f.size_bytes == 2 * PAGE_SIZE

    def test_read_out_of_range(self):
        disk = DiskManager()
        f = disk.create_file("data", category="inverted")
        with pytest.raises(StorageError):
            f.read(0)

    def test_duplicate_file_rejected(self):
        disk = DiskManager()
        disk.create_file("data", category="x")
        with pytest.raises(StorageError):
            disk.create_file("data", category="x")

    def test_read_unbuffered_charges_nothing(self):
        disk = DiskManager(buffer_pages=4)
        f = disk.create_file("data", category="x")
        p = f.allocate("payload")
        disk.stats.reset()
        assert f.read_unbuffered(p) == "payload"
        assert disk.stats.logical_reads == 0
        assert disk.stats.physical_reads == 0


class TestIOAccounting:
    def test_miss_then_hit(self):
        disk = DiskManager(buffer_pages=4)
        f = disk.create_file("data", category="network")
        p = f.allocate("payload")
        disk.stats.reset()
        f.read(p)
        f.read(p)
        assert disk.stats.logical_reads == 2
        assert disk.stats.physical_reads == 1
        assert disk.stats.buffer_hits == 1
        assert disk.stats.physical_by_category["network"] == 1

    def test_writes_counted(self):
        disk = DiskManager()
        f = disk.create_file("data", category="x")
        before = disk.stats.writes
        f.allocate("a")
        f.allocate("b")
        assert disk.stats.writes == before + 2

    def test_snapshot_delta(self):
        disk = DiskManager(buffer_pages=2)
        f = disk.create_file("data", category="rtree")
        pages = [f.allocate(i) for i in range(3)]
        before = disk.stats.snapshot()
        for p in pages:
            f.read(p)
        delta = disk.stats.snapshot() - before
        assert delta.logical_reads == 3
        assert delta.physical_reads == 3
        assert delta.physical_by_category == {"rtree": 3}

    def test_clear_buffer_forces_misses(self):
        disk = DiskManager(buffer_pages=8)
        f = disk.create_file("data", category="x")
        p = f.allocate("payload")
        f.read(p)
        disk.clear_buffer()
        disk.stats.reset()
        f.read(p)
        assert disk.stats.physical_reads == 1
