"""SIF and SIF-G hand the expansion their signature mask.

``INEExpansion.run`` tests each edge it reaches against a
:class:`~repro.index.base.GuardedLoader`'s mask in its own frame and
calls the loader's ``fetch`` only for edges that pass.  Checked here
against the per-edge call every other index gets, forced by a wrapper
whose ``loader`` hides the mask:

* equal streams — object ids, distances and order — equal expansion
  counts, equal ``LoadCounters`` and equal scoped I/O, on every index
  kind, for whole streams, kNN streams closed after ``k`` items and
  COM streams closed early;
* the guard's corners: edge 0, the highest edge id, a mask of 0 (an
  emptied row) and no mask at all (every query term unsigned);
* traced, every pruned edge is still one ``signature.prune`` event,
  and EXPLAIN's count of them is the ``signature.filter`` span's.
"""

import dataclasses
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.diversified_search import diversified_search
from repro.core.ine import INEExpansion
from repro.core.queries import SKQuery
from repro.index.base import GuardedLoader, LoadCounters
from repro.network.distance import PairwiseDistanceComputer
from repro.network.graph import NetworkPosition
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.workloads.queries import (
    WorkloadConfig,
    generate_diversified_queries,
)
from tests.index.test_loader import INDEXES, world  # noqa: F401  (fixture)
from tests.reference import event_count, spans_named, walk_spans

MASKED = [
    name for name, (kind, _) in INDEXES.items() if kind in ("sif", "sif-g")
]

IO_FIELDS = [
    "logical_reads", "physical_reads", "buffer_hits", "evictions",
    "physical_by_category",
]


class MaskHidden:
    """An index whose loader is a plain callable: HEAD's per-edge call."""

    def __init__(self, index):
        self.index = index

    def loader(self, terms, counters=None, tracer=NULL_TRACER):
        load = self.index.loader(terms, counters, tracer)
        return lambda edge_id: load(edge_id)


def measured(db, run):
    """``run(counters)`` from a cold buffer, with its scoped I/O."""
    db.disk.clear_buffer()
    counters = LoadCounters()
    with db.disk.stats.scoped() as io:
        out = run(counters)
    return out, counters, {f: getattr(io, f) for f in IO_FIELDS}


def assert_same_counters(inline, per_edge):
    for field in dataclasses.fields(LoadCounters):
        if field.name != "signature_seconds":
            assert getattr(inline, field.name) == getattr(
                per_edge, field.name
            ), field.name


def expand(db, index, query, take):
    """The first ``take`` items (all if ``None``) of one expansion,
    its stats, and the guard counters as they stood at every item."""

    def run(counters):
        expansion = INEExpansion(
            db.ccam, db.network, index, query.position, query.terms,
            query.delta_max, counters,
        )
        stream = expansion.run()
        items, seen = [], []
        for item in stream:
            items.append((item.object.object_id, item.distance))
            seen.append((
                counters.signature_tests_run,
                counters.edges_pruned_by_signature,
                counters.edges_probed,
            ))
            if take is not None and len(items) == take:
                break
        stream.close()
        stats = dataclasses.replace(expansion.stats, load_seconds=0.0)
        return items, seen, stats

    return measured(db, run)


def edge_ids(db):
    return sorted(edge.edge_id for edge in db.network.edges())


class TestInlineGuardIsTheLoader:
    def test_guarded_kinds_expose_their_mask(self, world):
        db, indexes, terms = world
        for name in MASKED:
            assert isinstance(indexes[name].loader(frozenset(terms[:1])),
                              GuardedLoader), name
        for name in set(INDEXES) - set(MASKED):
            assert not isinstance(
                indexes[name].loader(frozenset(terms[:1])), GuardedLoader
            ), name
        # The corners the examples below reach: an emptied row ANDs to
        # 0; the rarest terms are unsigned under the rare-keyword rule.
        assert indexes["sif"].loader(frozenset({"ghost"})).mask == 0
        assert indexes["sif/rare-unsigned"].loader(
            frozenset(terms[7:9])
        ).mask is None
        assert indexes["sif-g/rare-unsigned"].loader(
            frozenset(terms[7:9])
        ).mask is None

    @pytest.mark.parametrize("name", list(INDEXES))
    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        picks=st.sets(st.integers(0, 10), min_size=1, max_size=3),
        edge=st.floats(0.0, 1.0),
        offset=st.floats(0.0, 1.0),
        delta_max=st.sampled_from([300.0, 1500.0, 6000.0]),
        take=st.sampled_from([None, 1, 3]),
    )
    # Edge 0 and the highest edge id as the query edge, whose test runs
    # before the loop's; a mask of 0; no mask.
    @example(picks={0, 1}, edge=0.0, offset=0.5, delta_max=6000.0, take=None)
    @example(picks={0}, edge=1.0, offset=0.5, delta_max=6000.0, take=None)
    @example(picks={9}, edge=0.5, offset=0.5, delta_max=6000.0, take=None)
    @example(picks={7, 8}, edge=0.5, offset=0.5, delta_max=6000.0, take=3)
    def test_same_stream_counters_and_io(
        self, world, name, picks, edge, offset, delta_max, take
    ):
        db, indexes, vocabulary = world
        index = indexes[name]
        ids = edge_ids(db)
        edge_id = ids[round(edge * (len(ids) - 1))]
        query = SKQuery.create(
            NetworkPosition(edge_id, offset * db.network.edge(edge_id).weight),
            [vocabulary[i] for i in picks],
            delta_max,
        )
        inline = expand(db, index, query, take)
        per_edge = expand(db, MaskHidden(index), query, take)
        (items, seen, stats), counters, io = inline
        assert items == per_edge[0][0]
        assert seen == per_edge[0][1]
        assert stats == per_edge[0][2]
        assert_same_counters(counters, per_edge[1])
        assert io == per_edge[2]
        if name in MASKED:
            assert counters.signature_tests_run == stats.edges_accessed

    @pytest.mark.parametrize("name", MASKED)
    def test_every_edge_to_the_highest_id(self, world, name):
        """An unbounded expansion tests edge 0 and the top edge id
        mid-loop, under a mask that passes some edges and one of 0."""
        db, indexes, vocabulary = world
        index = indexes[name]
        for picks in ([0], [9]):
            query = SKQuery.create(
                NetworkPosition(edge_ids(db)[5], 0.0),
                [vocabulary[i] for i in picks], 1e9,
            )
            inline = expand(db, index, query, None)
            per_edge = expand(db, MaskHidden(index), query, None)
            assert inline[0][2].edges_accessed == db.network.num_edges
            assert inline[0] == per_edge[0]
            assert_same_counters(inline[1], per_edge[1])
            assert inline[2] == per_edge[2]

    @pytest.mark.parametrize("name", MASKED)
    def test_com_closed_early(self, world, name):
        db, indexes, _vocabulary = world
        index = indexes[name]
        queries = generate_diversified_queries(
            db,
            WorkloadConfig(
                num_queries=12, num_keywords=1, k=3, seed=17, delta_max=4000.0
            ),
        )

        def com(target, query):
            def run(counters):
                result = diversified_search(
                    db.ccam, db.network, target, query, "com",
                    pairwise=PairwiseDistanceComputer(
                        db.ccam, db.network,
                        cutoff=2.0 * query.delta_max * 1.001,
                    ),
                    counters=counters,
                )
                stats = dataclasses.replace(
                    result.stats, wall_seconds=0.0, stage_seconds={},
                )
                return (
                    [(i.object.object_id, i.distance) for i in result.items],
                    stats,
                )

            return measured(db, run)

        stopped = 0
        for query in queries:
            inline = com(index, query)
            per_edge = com(MaskHidden(index), query)
            assert inline[0] == per_edge[0]
            assert_same_counters(inline[1], per_edge[1])
            assert inline[2] == per_edge[2]
            stopped += inline[0][1].expansion_terminated_early
        assert stopped >= 3


def prune_events(span):
    return sum(event_count(s, "signature.prune") for s in walk_spans(span))


class TestTracedPrunesAreNarrated:
    @pytest.mark.parametrize("name", MASKED)
    def test_one_event_per_pruned_edge(self, world, name):
        db, indexes, vocabulary = world
        index = indexes[name]
        narrated = 0
        for picks in ([0], [0, 1], [2, 3], [9]):
            query = SKQuery.create(
                NetworkPosition(edge_ids(db)[5], 0.0),
                [vocabulary[i] for i in picks], 3000.0,
            )
            tracer = Tracer()
            counters = LoadCounters()
            with tracer.span("query"):
                INEExpansion(
                    db.ccam, db.network, index, query.position, query.terms,
                    query.delta_max, counters, tracer,
                ).run_to_completion()
            trace = tracer.last_trace
            assert not any(s.dropped_events for s in walk_spans(trace))
            assert prune_events(trace) == counters.edges_pruned_by_signature
            partitions = {
                attrs["partition"]
                for s in walk_spans(trace)
                for ev, _t, attrs in s.events
                if ev == "signature.prune"
            }
            assert partitions <= {index.name}
            narrated += counters.edges_pruned_by_signature
        assert narrated > 0

    @pytest.mark.parametrize("name", MASKED)
    def test_explain_count_is_the_filter_span(self, world, name):
        db, indexes, vocabulary = world
        index = indexes[name]
        query = SKQuery.create(
            NetworkPosition(edge_ids(db)[5], 0.0), vocabulary[:2], 3000.0
        )
        report = db.explain(index, query)
        (summary,) = spans_named(report.trace, "signature.filter")
        pruned = summary.attrs["edges_pruned"]
        assert pruned > 0
        assert prune_events(report.trace) == pruned
        text = report.render()
        assert re.search(
            rf"· {pruned} × edges pruned by signature", text
        ), text
