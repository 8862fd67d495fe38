"""A page-read fault in the middle of a query.

One CCAM node's page number is made to point past the end of its file,
so the expansion's read of that node raises ``StorageError`` after the
query has read other pages.  The failed query must surface as a typed
error and a failed event, the reads it made before the fault must land
in the disk's totals exactly once, and the buffer must be left exactly
as those reads leave it: the query, repaired, reads what it reads on a
twin database that made the same reads.
"""

import pytest

from repro.datasets import build_dataset
from repro.engine.plan import plan_sk
from repro.errors import ReproError, StorageError
from repro.storage.pagefile import PageFile
from repro.workloads.queries import WorkloadConfig, generate_sk_queries
from tests.conftest import TINY_PROFILE


def _world():
    """A database whose 2-page buffer makes every query evict, and an
    SK query that reaches most of its network."""
    db = build_dataset(TINY_PROFILE, buffer_pages=2)
    index = db.build_index("sif")
    (query,) = generate_sk_queries(
        db, WorkloadConfig(
            num_queries=1, num_keywords=1, delta_max=4000.0, seed=23
        )
    )
    return db, plan_sk(db, index, query)


def test_fault_mid_query_is_charged_once_and_leaves_the_buffer_consistent(
    monkeypatch,
):
    db, plan = _world()
    twin, twin_plan = _world()

    # Run the doomed query once healthy on both databases, noting the
    # order it reads nodes in; fault the node it reaches half-way.
    order = []
    neighbors = db.ccam.neighbors

    def noting_neighbors(node_id):
        order.append(node_id)
        return neighbors(node_id)

    with monkeypatch.context() as m:
        m.setattr(db.ccam, "neighbors", noting_neighbors)
        db.engine.execute(plan)
    twin.engine.execute(twin_plan)
    node = order[len(order) // 2]
    page_no = db.ccam._node_page[node]
    db.ccam._node_page[node] = db.ccam.num_pages + 3

    reads = []
    original_read = PageFile.read

    def recording_read(self, number):
        payload = original_read(self, number)
        reads.append((self.name, number))
        return payload

    events = []
    db._subscribers += (events.append,)
    before = db.disk.stats.snapshot()
    with monkeypatch.context() as m:
        m.setattr(PageFile, "read", recording_read)
        with pytest.raises(StorageError) as raised:
            db.engine.execute(plan)
    growth = db.disk.stats.snapshot() - before

    assert isinstance(raised.value, ReproError)
    (event,) = events
    assert event.error is raised.value and event.stats is None
    # The reads before the fault, each charged exactly once.
    assert reads
    assert growth.logical_reads == len(reads)
    assert growth.logical_reads == growth.physical_reads + growth.buffer_hits

    # The twin makes the same reads outside any query: same charges.
    db.ccam._node_page[node] = page_no
    twin_before = twin.disk.stats.snapshot()
    files = {f.name: f for f in twin.disk.files()}
    for name, number in reads:
        files[name].read(number)
    assert twin.disk.stats.snapshot() - twin_before == growth

    # ... and the same buffer: the query, repaired, reads the same pages.
    after = db.engine.execute(plan).stats
    twin_after = twin.engine.execute(twin_plan).stats
    assert after.io == twin_after.io
    assert after.buffer_evictions == twin_after.buffer_evictions
    assert after.io.physical_reads > 0
