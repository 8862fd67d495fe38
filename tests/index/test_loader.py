"""Algorithm 2 is split at the query / edge line:
``index.loader(terms, counters)``.

An expansion binds one loader when it starts and calls it per edge; the
signature indexes resolve in that one call what is constant for the
query (the AND of the signed rows, SIF-G's pair cover, SIF-P's
rarest-first trees).  Checked here:

* the bound loader and the one-shot ``load_objects`` are one
  implementation — same lists, same ``LoadCounters`` field by field,
  over every edge, for every index kind and for term sets that include
  unsigned, absent-from-dataset and empty-row terms;
* a loader bound after an update sees the set / cleared bit (a loader
  lives for one expansion, so nothing has to invalidate one);
* the call budget: the per-query work happens once per expansion;
* per-query counters under ``execute_many(workers=2)`` sum to the
  lifetime totals exactly;
* the stream COM closes early leaves the expansion's stats final.
"""

import dataclasses
import gc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Database, SKQuery
from repro.core.diversified_search import diversified_search
from repro.core.ine import INEExpansion
from repro.datasets import build_dataset
from repro.datasets.catalog import DatasetProfile
from repro.engine import ExecutionContext, plan_sk
from repro.index.base import LoadCounters
from repro.index.sif_g import SIFGIndex
from repro.index.signature import PackedBitMatrix, SignatureFile
from repro.network.distance import PairwiseDistanceComputer
from repro.network.graph import NetworkPosition
from repro.workloads.queries import (
    WorkloadConfig,
    generate_diversified_queries,
    generate_sk_queries,
)

PROFILE = DatasetProfile(
    name="LOADER",
    network_kind="planar",
    num_nodes=110,
    neighbours=3,
    num_objects=700,
    vocabulary_size=40,
    avg_keywords=6,
    zipf_z=1.0,
    num_topics=4,
    seed=13,
)

#: The five index kinds, and the three signature kinds again under the
#: paper's rare-keyword rule (most of this vocabulary is then unsigned).
INDEXES = {
    "ir": ("ir", {}),
    "if": ("if", {}),
    "sif": ("sif", {}),
    "sif-g": ("sif-g", {}),
    "sif-p": ("sif-p", {}),
    "sif/rare-unsigned": ("sif", {"min_postings_pages": 2}),
    "sif-g/rare-unsigned": ("sif-g", {"min_postings_pages": 2}),
    "sif-p/rare-unsigned": ("sif-p", {"min_postings_pages": 2}),
}
DYNAMIC = [
    name for name, (kind, _) in INDEXES.items() if kind in ("if", "sif", "sif-p")
]

COUNT_FIELDS = [
    f.name for f in dataclasses.fields(LoadCounters)
    if f.name != "signature_seconds"
]


@pytest.fixture(scope="module")
def world():
    """A private database (it is updated below), its indexes and terms.

    ``ghost`` is inserted and deleted again through the dynamic path,
    so SIF and SIF-P keep an emptied row for it; ``never-seen`` has no
    row anywhere.
    """
    db = build_dataset(PROFILE)
    indexes = {
        name: db.build_index(kind, file_prefix=f"loader-{i}", **kwargs)
        for i, (name, (kind, kwargs)) in enumerate(INDEXES.items())
    }
    dynamic = [indexes[name] for name in DYNAMIC]
    freq = db.store.keyword_frequencies()
    ranked = sorted(freq, key=lambda t: (-freq[t], t))
    edge_id = next(iter(db.store.edges_with_objects()))
    ghost = db.insert_object(
        NetworkPosition(edge_id, 0.0), {"ghost", ranked[0]}, dynamic
    )
    db.delete_object(ghost.object_id, dynamic)
    terms = ranked[:4] + ranked[12:15] + ranked[-2:] + ["ghost", "never-seen"]
    return db, indexes, terms


def sweep(db, index, bind):
    """Every edge through ``bind(counters)``'s loader, on fresh counters."""
    counters = LoadCounters()
    load = bind(counters)
    lists = [
        [o.object_id for o in load(edge.edge_id)]
        for edge in db.network.edges()
    ]
    return lists, counters


def guard_reference(db, index, kind, terms):
    """``(signature tests, edges pruned)`` the guard owes for ``terms``.

    Derived slot by slot, not from the combined row the loaders shift:
    ``SignatureFile.test``, the store's objects for SIF-G's pairs and
    ``SIFPIndex._bit``.  SIF-P tests only edges that hold objects.
    """
    edge_ids = [edge.edge_id for edge in db.network.edges()]
    if kind == "sif-p":
        edge_ids = [e for e in edge_ids if db.store.objects_on_edge(e)]

        def passes(e):
            return any(
                all(index._bit(e, v, t) for t in terms)
                for v in range(len(index.segments_of(e)))
            )
    elif kind == "sif-g":
        pairs, singles = index._cover(terms)

        def passes(e):
            return index.signatures.test(e, singles) and all(
                any(pair <= o.keywords for o in db.store.objects_on_edge(e))
                for pair in pairs
            )
    else:
        def passes(e):
            return index.signatures.test(e, terms)

    return len(edge_ids), sum(not passes(e) for e in edge_ids)


class TestBoundLoaderIsLoadObjects:
    def test_world_has_every_kind_of_term(self, world):
        _db, indexes, terms = world
        sif, rare = indexes["sif"], indexes["sif/rare-unsigned"]
        assert sif.signatures.has_signature("ghost")
        assert sif.signatures.edges_of("ghost") == frozenset()
        assert not sif.signatures.has_signature("never-seen")
        signed = [t for t in terms if rare.signatures.has_signature(t)]
        assert 2 <= len(signed) < len(terms) - 2
        assert indexes["sif-p/rare-unsigned"]._unsigned_terms

    @pytest.mark.parametrize("name", list(INDEXES))
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(picks=st.sets(st.integers(0, 10), min_size=1, max_size=3))
    # "ghost" (index 9) has an emptied row on SIF and SIF-P: their
    # loaders always meet a combined row of 0, which must still prune.
    @example(picks={0, 9})
    def test_same_lists_and_counters_over_every_edge(self, world, name, picks):
        db, indexes, vocabulary = world
        index = indexes[name]
        terms = frozenset(vocabulary[i] for i in picks)
        bound, bound_counters = sweep(
            db, index, lambda c: index.loader(terms, c)
        )
        one_shot, one_shot_counters = sweep(
            db, index, lambda c: lambda e: index.load_objects(e, terms, c)
        )
        assert bound == one_shot
        for field in COUNT_FIELDS:
            assert getattr(bound_counters, field) == getattr(
                one_shot_counters, field
            ), field
        assert bound_counters.signature_seconds >= 0.0
        # And both are right.
        for edge, ids in zip(db.network.edges(), bound):
            assert sorted(ids) == sorted(
                o.object_id
                for o in db.store.objects_on_edge(edge.edge_id)
                if o.contains_all(terms)
            )
        # And so is the guard: on the signature kinds load_objects is
        # the loader, so the prune counters need a reference of their own.
        kind = INDEXES[name][0]
        if kind.startswith("sif"):
            tests, pruned = guard_reference(db, index, kind, terms)
            assert bound_counters.signature_tests_run == tests
            assert bound_counters.edges_pruned_by_signature == pruned
            assert bound_counters.edges_probed == tests - pruned


class TestLoaderBoundAfterAnUpdate:
    @pytest.mark.parametrize("kind", ["sif", "sif-p"])
    def test_sees_the_set_and_the_cleared_bit(self, grid_network9, kind):
        db = Database(grid_network9, buffer_pages=64)
        db.add_object(NetworkPosition(0, 20.0), {"pizza"})
        db.add_object(NetworkPosition(3, 50.0), {"pizza", "bar"})
        db.add_object(NetworkPosition(5, 10.0), {"bar"})
        db.freeze()
        index = db.build_index(kind)
        terms = frozenset({"pizza"})

        def pruned_by(load):
            counters = index.lifetime_counters
            before = counters.edges_pruned_by_signature
            got = load(5)
            return got, counters.edges_pruned_by_signature - before

        assert pruned_by(index.loader(terms)) == ([], 1)
        obj = db.insert_object(NetworkPosition(5, 30.0), {"pizza"}, [index])
        assert pruned_by(index.loader(terms)) == ([obj], 0)
        db.delete_object(obj.object_id, [index])
        assert pruned_by(index.loader(terms)) == ([], 1)


@pytest.fixture()
def calls(monkeypatch):
    """Calls of each per-query step, counted on the classes."""
    counts = {}

    def count(owner, attr):
        real = getattr(owner, attr)
        key = f"{owner.__name__}.{attr}"
        counts[key] = 0

        def counting(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)

    count(SignatureFile, "combined_row")
    count(SignatureFile, "test")
    count(SIFGIndex, "_cover")
    count(PackedBitMatrix, "combined")
    return counts


class TestCallBudget:
    @pytest.mark.parametrize("kind, budget", [
        ("sif", {"SignatureFile.combined_row": 1, "SIFGIndex._cover": 0}),
        ("sif-g", {"SignatureFile.combined_row": 1, "SIFGIndex._cover": 1}),
        ("sif-p", {"SignatureFile.combined_row": 0, "SIFGIndex._cover": 0}),
    ])
    def test_per_query_steps_run_once_per_expansion(
        self, world, calls, kind, budget
    ):
        db, indexes, _terms = world
        index = indexes[kind]
        queries = generate_sk_queries(
            db, WorkloadConfig(
                num_queries=6, num_keywords=2, seed=3, delta_max=8000.0
            ),
        )
        for query in queries:
            for key in calls:
                calls[key] = 0
            result = db.sk_search(index, query)
            assert result.stats.edges_accessed > 10
            for key, expected in budget.items():
                assert calls[key] == expected, key
            assert calls["SignatureFile.test"] == 0
            assert calls["PackedBitMatrix.combined"] == 1


class TestPerQueryCountersUnderWorkers:
    @pytest.mark.parametrize("kind", ["sif", "sif-p"])
    def test_sum_to_the_lifetime_totals_exactly(self, world, monkeypatch, kind):
        db, indexes, _terms = world
        index = indexes[kind]
        per_query = []

        class Recording(ExecutionContext):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                per_query.append(self.counters)

        monkeypatch.setattr("repro.engine.executor.ExecutionContext", Recording)
        queries = generate_sk_queries(
            db, WorkloadConfig(
                num_queries=24, num_keywords=2, seed=5, delta_max=8000.0
            ),
        )
        before = dataclasses.replace(index.lifetime_counters)
        db.engine.execute_many(
            [plan_sk(db, index, q) for q in queries], workers=2
        )
        after = index.lifetime_counters
        assert len(per_query) == len(queries)
        for field in COUNT_FIELDS:
            assert sum(getattr(c, field) for c in per_query) == (
                getattr(after, field) - getattr(before, field)
            ), field
        assert all(c.signature_tests_run > 0 for c in per_query)
        assert all(c.signature_seconds > 0.0 for c in per_query)
        assert sum(c.signature_seconds for c in per_query) == pytest.approx(
            after.signature_seconds - before.signature_seconds
        )


class CountingProvider:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def neighbors(self, node_id):
        self.calls += 1
        return self.inner.neighbors(node_id)


class TestEarlyCloseLeavesStatsFinal:
    def test_closing_the_stream_as_com_does(self, world):
        db, indexes, terms = world
        index = indexes["sif"]
        query = SKQuery.create(
            NetworkPosition(next(iter(db.store.edges_with_objects())), 0.0),
            terms[:1],
            5000.0,
        )
        provider = CountingProvider(db.ccam)
        counters = LoadCounters()
        expansion = INEExpansion(
            provider, db.network, index, query.position, query.terms,
            query.delta_max, counters,
        )
        stream = expansion.run()
        taken = [next(stream) for _ in range(4)]
        stream.close()
        stats = expansion.stats
        assert stats.objects_emitted == len(taken) == 4
        assert stats.nodes_accessed == provider.calls > 0
        assert stats.edges_accessed == counters.signature_tests_run > 1
        assert stats.load_seconds > 0.0
        snapshot = dataclasses.replace(stats)
        del stream
        gc.collect()
        assert stats == snapshot
        # The run was cut short: to completion it reaches further.
        full = INEExpansion(
            db.ccam, db.network, index, query.position, query.terms,
            query.delta_max,
        )
        assert len(full.run_to_completion()) > 4
        assert full.stats.nodes_accessed > stats.nodes_accessed

    def test_com_reports_the_expansion_it_stopped(self, world):
        db, indexes, _terms = world
        index = indexes["sif"]
        queries = generate_diversified_queries(
            db,
            WorkloadConfig(
                num_queries=12, num_keywords=1, k=3, seed=17, delta_max=4000.0
            ),
        )
        stopped = 0
        for query in queries:
            provider = CountingProvider(db.ccam)
            counters = LoadCounters()
            result = diversified_search(
                provider, db.network, index, query, "com",
                pairwise=PairwiseDistanceComputer(
                    db.ccam, db.network,
                    cutoff=2.0 * query.delta_max * 1.001,
                ),
                counters=counters,
            )
            assert result.stats.nodes_accessed == provider.calls
            assert result.stats.edges_accessed == counters.signature_tests_run
            assert 0.0 < result.stats.stage_seconds["object_loading"] <= (
                result.stats.stage_seconds["expansion"]
            )
            stopped += result.stats.expansion_terminated_early
        assert stopped >= 3
