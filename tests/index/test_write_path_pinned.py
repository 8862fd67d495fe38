"""The postings write path, pinned page for page.

A fixed burst of inserts and deletes runs through IF, SIF and SIF-P on
one private tiny database.  It fills an edge's last postings page and
spills past :data:`~repro.index.inverted_file.POSTINGS_PER_PAGE` onto
new pages, opens a keyword no tree holds yet and an edge no keyword's
tree holds yet, and deletes every object of one of SIF-P's virtual
edges.  Afterwards each file's page count, the disk's logical reads and
writes over the burst, and each index's layout digest
(:func:`tests.datasets.test_catalog.layout_digest`) must be the
numbers below, read off the code before the insert and delete paths
were shared between the indexes.

Every keyword tree of that database is one pinned root leaf, so its
burst reads nothing through the buffer.  A second burst runs on SYN at
scale 0.25, on keywords whose trees have two levels: there each update
descends to a leaf that is not pinned, so an added or dropped descent
moves the logical reads.
"""

import pytest

from repro.datasets.catalog import build_dataset
from repro.index.inverted_file import POSTINGS_PER_PAGE
from repro.network.graph import NetworkPosition
from tests.conftest import TINY_PROFILE
from tests.datasets.test_catalog import layout_digest, trees_and_rows
from tests.reference import sifp_segments

KINDS = ("if", "sif", "sif-p")

#: Every keyword's tree is one pinned root leaf on this dataset, so
#: the updates' descents read nothing through the buffer.
PINNED = {
    "pages": {
        "wp-if.postings": 87, "wp-if.trees": 81,
        "wp-sif.postings": 87, "wp-sif.trees": 81,
        "wp-sif-p.postings": 87, "wp-sif-p.trees": 81,
    },
    "logical_reads": 0,
    "writes": 2139,
    "digests": {
        "if": "afbb8e8510ec36fb81855990bb43722095b3b1a368f5e051793ea46072b34174",
        "sif": "0ccb548b2ea97526facb9d89f76b4633bf8bbc966be371bc1a006ed8d280d3e7",
        "sif-p": "8f9c7448b5782f997798c9c2353b0c5281ffbd6df527b1f4b1beb3103d012245",
    },
}


def burst(db, indexes):
    """The fixed update burst; returns the edge whose second virtual
    edge it emptied."""
    store = db.store
    freq = store.keyword_frequencies()
    ranked = sorted(freq, key=lambda t: (-freq[t], t))
    hot = ranked[0]
    sifp = indexes["sif-p"]
    # The densest edge SIF-P cut: its middle virtual edge is emptied.
    cut_edge = min(
        (e for e, segs in sifp._segments.items() if len(segs) > 2),
        key=lambda e: (-len(store.objects_on_edge(e)), e),
    )
    # A spill: more postings of the hot keyword onto one other edge
    # than a page holds.
    spill_edge = min(
        (e for e in store.edges_with_objects() if e != cut_edge),
        key=lambda e: (-len(store.objects_on_edge(e)), e),
    )
    spill_length = db.network.edge(spill_edge).weight
    inserted = []
    for i in range(POSTINGS_PER_PAGE + 3):
        offset = spill_length * (0.5 + 0.49 * i / (POSTINGS_PER_PAGE + 3))
        terms = {hot, ranked[1 + i % 5]}
        inserted.append(db.insert_object(
            NetworkPosition(spill_edge, offset), terms, indexes.values()
        ))
    # A keyword no tree holds, and an edge no keyword's tree holds.
    empty_edge = min(
        e.edge_id for e in db.network.edges()
        if not store.objects_on_edge(e.edge_id)
    )
    inserted.append(db.insert_object(
        NetworkPosition(empty_edge, db.network.edge(empty_edge).weight / 3),
        {"fresh", hot}, indexes.values(),
    ))
    # Every object of the cut edge's second virtual edge goes.
    start, end = sifp_segments(sifp, cut_edge)[1]
    doomed = store.objects_on_edge(cut_edge)[start : end + 1]
    for obj in list(doomed):
        db.delete_object(obj.object_id, indexes.values())
    # Every third spilled object goes again.
    for obj in inserted[::3]:
        db.delete_object(obj.object_id, indexes.values())
    return cut_edge


def test_insert_delete_burst_is_pinned():
    db = build_dataset(TINY_PROFILE)
    indexes = {
        kind: db.build_index(kind, file_prefix=f"wp-{kind}") for kind in KINDS
    }
    files = {
        kind: [f for f in db.disk.files() if f.name.startswith(f"wp-{kind}.")]
        for kind in KINDS
    }
    pages_before = {
        f.name: f.num_pages for kind in KINDS for f in files[kind]
    }
    stats = db.disk.stats
    reads, writes = stats.logical_reads, stats.writes
    cut_edge = burst(db, indexes)
    start, end = sifp_segments(indexes["sif-p"], cut_edge)[1]
    assert end == start - 1  # the virtual edge is empty
    got = {
        "pages": {
            f.name: f.num_pages for kind in KINDS for f in files[kind]
        },
        "logical_reads": stats.logical_reads - reads,
        "writes": stats.writes - writes,
        "digests": {
            kind: layout_digest(indexes[kind], files[kind]) for kind in KINDS
        },
    }
    # The spill opened postings pages in every index.
    for kind in KINDS:
        name = f"wp-{kind}.postings"
        assert got["pages"][name] > pages_before[name], name
    assert got == PINNED




#: The two-level burst's numbers on SYN 0.25, one database per index.
PINNED_DEEP = {
    "if": {
        "pages": {"deep-if.postings": 652, "deep-if.trees": 611},
        "logical_reads": 350,
        "writes": 356,
        "digest": "fdb9879643e87a4a921d5d3fcaef49c312a547062645c181efa1c6a17286aff9",
    },
    "sif": {
        "pages": {"deep-sif.postings": 652, "deep-sif.trees": 611},
        "logical_reads": 350,
        "writes": 356,
        "digest": "218422cfac21f1b74ad455673b6c5d69babe95f2510104e9a9f26dd22d0f84a6",
    },
    "sif-p": {
        "pages": {"deep-sif-p.postings": 652, "deep-sif-p.trees": 611},
        "logical_reads": 350,
        "writes": 356,
        "digest": "3d76f2001185132ee48e6f555d1470109e312bed2cd8e48a16b086fa4b3599b1",
    },
}


def deep_burst(db, index):
    """Inserts and deletes through ``index`` on the three most frequent
    keywords whose trees have two levels, spread over the whole
    edge-key range; returns those keywords."""
    store = db.store
    freq = store.keyword_frequencies()
    trees, _rows = trees_and_rows(index)
    deep = sorted(
        (t for t, tree in trees.items() if tree._height == 2),
        key=lambda t: (-freq[t], t),
    )[:3]
    edges = sorted(store.edges_with_objects())
    inserted = []
    for i in range(40):
        edge_id = edges[i * len(edges) // 40]
        inserted.append(db.insert_object(
            NetworkPosition(edge_id, db.network.edge(edge_id).weight / 3),
            {deep[i % 3], deep[(i + 1) % 3]}, (index,),
        ))
    doomed = sorted(
        (o for o in store if deep[0] in o.keywords),
        key=lambda o: o.object_id,
    )[:20]
    for obj in doomed + inserted[::4]:
        db.delete_object(obj.object_id, (index,))
    return deep


@pytest.mark.parametrize("kind", KINDS)
def test_burst_on_two_level_trees_is_pinned(kind):
    db = build_dataset("SYN", scale=0.25)
    index = db.build_index(kind, file_prefix=f"deep-{kind}")
    files = [f for f in db.disk.files() if f.name.startswith("deep-")]
    stats = db.disk.stats
    reads, writes = stats.logical_reads, stats.writes
    deep = deep_burst(db, index)
    trees, _rows = trees_and_rows(index)
    assert deep == ["t0", "t40", "t80"]
    assert all(trees[term]._height == 2 for term in deep)
    got = {
        "pages": {f.name: f.num_pages for f in files},
        "logical_reads": stats.logical_reads - reads,
        "writes": stats.writes - writes,
        "digest": layout_digest(index, files),
    }
    assert got["logical_reads"] > 0
    assert got == PINNED_DEEP[kind]
