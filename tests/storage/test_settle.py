"""Settling a scope's read log equals charging every read as it happens.

Inside a scope ``PageFile.read`` only logs the page; the scope runs its
log through the buffer pool later, in one pass.  Hit or miss depends
only on the pool's state and the order of accesses, so in a serial
stream every count must equal a per-read reference: the independent
LRU model of ``test_buffer.py``, called once per read and charged to
whichever scope was innermost when the read was made.
"""

from collections import Counter
from contextlib import ExitStack

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.pagefile import DiskManager
from tests.storage.test_buffer import _ReferenceLRU

FILES = (("net", "network"), ("inv", "inverted"), ("rt", "rtree"))
PAGES = 4


class _Charge:
    """The per-read reference's counters for one scope (or the totals)."""

    def __init__(self):
        self.logical = self.physical = self.hits = self.evictions = 0
        self.by_category = Counter()

    def read(self, model, key, category):
        before = len(model.data)
        self.logical += 1
        if model.access(key):
            self.hits += 1
            return
        self.physical += 1
        self.by_category[category] += 1
        if model.capacity and len(model.data) == before:
            self.evictions += 1

    def absorb(self, other):
        self.logical += other.logical
        self.physical += other.physical
        self.hits += other.hits
        self.evictions += other.evictions
        self.by_category.update(other.by_category)

    def assert_equals(self, snap):
        assert snap.logical_reads == self.logical
        assert snap.physical_reads == self.physical
        assert snap.buffer_hits == self.hits
        assert snap.evictions == self.evictions
        assert snap.physical_by_category == {
            c: n for c, n in self.by_category.items() if n
        }


_READ = st.tuples(
    st.just("read"), st.integers(0, len(FILES) - 1), st.integers(0, PAGES - 1)
)
# Reads outnumber scope events three to one, so scopes hold several.
_OPS = st.one_of(
    _READ, _READ, _READ,
    st.tuples(st.sampled_from(["open", "close", "peek"])),
)


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(0, 6),
    num_files=st.integers(2, 3),
    ops=st.lists(_OPS, max_size=80),
)
def test_settled_scopes_equal_per_read_accounting(capacity, num_files, ops):
    disk = DiskManager(buffer_pages=capacity)
    files = []
    for name, category in FILES[:num_files]:
        f = disk.create_file(name, category)
        for i in range(PAGES):
            f.allocate(i)
        files.append(f)
    model = _ReferenceLRU(capacity)
    totals = _Charge()
    # Open scopes, innermost last: (exit stack, scope, reference charge).
    open_scopes = []

    def close_innermost():
        stack, scope, charge = open_scopes.pop()
        stack.close()
        charge.assert_equals(scope.snapshot())
        totals.absorb(charge)

    for op in ops:
        if op[0] == "read":
            f = files[op[1] % num_files]
            assert f.read(op[2]) == op[2]
            charge = open_scopes[-1][2] if open_scopes else totals
            charge.read(model, (f.name, op[2]), f.category)
        elif op[0] == "open" and len(open_scopes) < 2:
            stack = ExitStack()
            scope = stack.enter_context(disk.stats.scoped())
            open_scopes.append((stack, scope, _Charge()))
        elif op[0] == "close" and open_scopes:
            close_innermost()
        elif op[0] == "peek" and open_scopes:
            open_scopes[-1][2].assert_equals(open_scopes[-1][1].snapshot())
    while open_scopes:
        close_innermost()

    totals.assert_equals(disk.stats.snapshot())
    assert list(disk.buffer._lru) == list(model.data)
