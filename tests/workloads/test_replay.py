"""Replay tests: record a live run, re-execute it, diff everything."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.datasets import build_dataset
from repro.core.queries import SKQuery
from repro.engine.plan import plan_diversified, plan_sk
from repro.errors import QueryError
from repro.network.distance import (
    DISTANCE_BACKENDS,
    PAIRWISE_CUTOFF_FACTOR,
    PairwiseDistanceComputer,
)
from repro.network.graph import NetworkPosition
from repro.workloads.queries import (
    WorkloadConfig,
    generate_diversified_queries,
)
from repro.workloads.replay import (
    FlightJournal,
    ReplayConfig,
    journal_backend,
    load_flight_journal,
    run_replay,
)
from tests.conftest import TINY_PROFILE, hub_label_distances

#: Recorded at the commit before the frontier / scoring / no-numpy
#: switches were deleted (``repro update SYN --scale 0.25 ... --record``).
PR11_JOURNAL = Path(__file__).parents[1] / "data" / "flight_pr11.jsonl"


def fresh_db():
    return build_dataset(TINY_PROFILE)


class PerturbingBackend:
    """A faulty oracle: every finite distance drifts by a relative
    epsilon far above digest rounding — the injected fault replay
    must catch."""

    name = "perturbed"

    def __init__(self, inner, epsilon: float = 1e-3) -> None:
        self.inner = inner
        self.epsilon = epsilon

    def _warp(self, value: float) -> float:
        if not math.isfinite(value) or value == 0.0:
            return value
        return value * (1.0 + self.epsilon)

    def position_distance(self, a, b, cutoff=math.inf):
        return self._warp(self.inner.position_distance(a, b, cutoff))

    def position_matrix(self, positions, cutoff=math.inf):
        matrix = self.inner.position_matrix(positions, cutoff)
        return {key: self._warp(value) for key, value in matrix.items()}


def record_run(path, with_updates=True, methods=("seq", "com"), **workload):
    """Capture a small mixed workload (queries + dynamic updates)."""
    db = fresh_db()
    index = db.build_index("sif")
    recorder = db.enable_flight_recorder(path=path)
    recorder.set_header(
        profile="TINY", scale=1.0, seed=TINY_PROFILE.seed,
        distance_backend=db.distance_backend,
        data_version=db.data_version,
    )
    queries = generate_diversified_queries(
        db, WorkloadConfig(**{
            "num_queries": 6, "num_keywords": 2, "k": 4, "seed": 31,
            **workload,
        })
    )
    plans = [
        plan_diversified(db, index, q, method=methods[i % len(methods)])
        for i, q in enumerate(queries)
    ]
    first = [db.engine.execute(p, sequence=i)
             for i, p in enumerate(plans[:3])]
    if with_updates:
        victim = next(
            result.object_ids()[0] for result in first
            if result.object_ids()
        )
        db.insert_object(
            NetworkPosition(0, 1.0), {"t0", "t1"}, indexes=(index,)
        )
        db.delete_object(victim, indexes=(index,))
        db.update_edge_weight(2, 321.0, indexes=(index,))
    for i, plan in enumerate(plans[3:], start=3):
        db.engine.execute(plan, sequence=i)
    db.disable_flight_recorder()
    return db


@pytest.fixture(scope="module")
def journal_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("flight") / "flight.jsonl"
    record_run(path)
    return path


class TestLoadFlightJournal:
    def test_parses_all_record_types(self, journal_path):
        journal = load_flight_journal(journal_path)
        assert journal.header is not None
        assert journal.header["profile"] == "TINY"
        assert len(journal.queries) == 6
        assert len(journal.updates) == 3
        assert journal.skipped == 0

    def test_tolerates_foreign_and_malformed_lines(
        self, tmp_path, journal_path
    ):
        # A flight record from when the engine could re-run a query on
        # a second backend in flight carries the verdict under a
        # ``shadow`` key: it loads like any other, and replays.
        old = dict(
            load_flight_journal(journal_path).queries[0],
            shadow={"backend": "ch", "digest": "0" * 16, "match": False},
        )
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            json.dumps({"type": "flight_header", "profile": "TINY"}) + "\n"
            + json.dumps({"type": "snapshot", "counters": {}}) + "\n"
            + json.dumps(old) + "\n"
            + '{"truncated": \n'
        )
        journal = load_flight_journal(path)
        assert journal.header is not None
        assert journal.skipped == 2
        assert [q["shadow"]["backend"] for q in journal.queries] == ["ch"]
        report = run_replay(fresh_db(), journal)
        assert report.passed and report.queries_replayed == 1


class TestReplayConfig:
    def test_validation(self):
        with pytest.raises(QueryError):
            ReplayConfig(workers=0)
        with pytest.raises(QueryError):
            ReplayConfig(limit=0)


class TestReplayDeterminism:
    def test_same_backend_zero_divergences(self, journal_path):
        journal = load_flight_journal(journal_path)
        report = run_replay(fresh_db(), journal,
                            journal_path=str(journal_path))
        assert report.passed
        assert report.queries_replayed == 6
        assert report.updates_applied == {
            "insert": 1, "delete": 1, "edge_weight": 1,
        }
        assert set(report.per_label) == {"SIF/SEQ", "SIF/COM"}
        assert all(
            slot["diverged"] == 0 for slot in report.per_label.values()
        )
        assert "PASS — zero divergences" in report.render()

    def test_unpinned_run_replays_unpinned(self, tmp_path):
        """An un-pinned plan is recorded as ``auto`` and replayed
        un-pinned: every query takes the exit it took live, so its
        answer and its ``candidates`` / ``nodes_accessed`` match —
        among them COM exits that stopped the expansion early."""
        path = tmp_path / "auto.jsonl"
        record_run(path, methods=(None,), num_keywords=1, delta_max=3000.0)
        journal = load_flight_journal(path)
        assert {q["algorithm"] for q in journal.queries} == {"auto"}
        stats = [q["stats"] for q in journal.queries]
        assert all(
            s["candidates"] is not None and s["nodes_accessed"] is not None
            for s in stats
        )
        # The SEQ exit evaluates no θ; the COM exit's bootstrap does.
        assert {s["theta_evaluations"] > 0 for s in stats} == {True, False}
        assert any(s["expansion_terminated_early"] for s in stats)
        report = run_replay(fresh_db(), journal)
        assert report.passed, [d.render() for d in report.divergences]
        assert report.queries_replayed == 6
        assert sum(report.updates_applied.values()) == 3
        assert set(report.per_label) == {"SIF/AUTO"}

    @pytest.mark.parametrize("backend", [*DISTANCE_BACKENDS, "hub"])
    def test_cross_backend_zero_divergences(self, journal_path, backend):
        """Each backend, and the hub-label oracle answering the default
        backend's computers, replays the journal digest for digest."""
        db = fresh_db()
        if backend == "hub":
            with hub_label_distances(db):
                report = run_replay(db, load_flight_journal(journal_path))
            backend = "csgraph"
        else:
            db.use_distance_backend(backend)
            report = run_replay(db, load_flight_journal(journal_path))
        assert report.passed, [d.render() for d in report.divergences]
        assert report.backend == backend

    @pytest.mark.parametrize("backend", [*DISTANCE_BACKENDS, "ch", "hub"])
    def test_pre_refactor_journal_zero_divergences(self, backend):
        """A journal recorded while the CSR frontier and the scoring
        switch existed (its header and hints name them) replays clean
        on the backend its header names: the retired keys are noted and
        ignored.  A header naming a retired backend, ``ch`` or ``hub``,
        replays on ``csgraph`` and is noted the same way."""
        journal = load_flight_journal(PR11_JOURNAL)
        assert journal.header["frontier"] == "csr"
        assert journal.header["scoring"] == "array"
        assert all("scoring" in q["hints"] for q in journal.queries)
        journal.header["distance_backend"] = backend
        db = build_dataset(
            journal.header["profile"], scale=journal.header["scale"]
        )
        db.use_distance_backend(journal_backend(journal.header))
        report = run_replay(db, journal)
        assert report.passed, [d.render() for d in report.divergences]
        retired = backend in ("ch", "hub")
        assert report.backend == ("csgraph" if retired else backend)
        assert report.queries_replayed == 24
        assert sum(report.updates_applied.values()) == 16
        notes = [
            line for line in report.render().splitlines()
            if "retired modes" in line
        ]
        assert len(notes) == 1
        assert "frontier=csr" in notes[0] and "scoring=array" in notes[0]
        assert (f"distance_backend={backend}" in notes[0]) == retired

    @pytest.mark.parametrize("hit", [True, False], ids=["hit", "no-hit"])
    def test_recorded_result_cache_hit_skips_invariant_counters(
        self, tmp_path, hit
    ):
        """Journals written while the engine had a result cache mark a
        served answer ``result_cache_hit``, with the stats of a lookup
        that did no search.  Such a record replays clean, its answer
        still checked; the same zeroed stats unmarked diverge."""
        lines = PR11_JOURNAL.read_text().splitlines()
        first = next(
            i for i, line in enumerate(lines)
            if json.loads(line)["type"] == "flight"
        )
        record = json.loads(lines[first])
        record["result_cache_hit"] = record["stats"]["result_cache_hit"] = hit
        for key in ("candidates", "nodes_accessed", "edges_accessed",
                    "objects_loaded", "pairwise_dijkstras"):
            record["stats"][key] = 0
        lines[first] = json.dumps(record)
        path = tmp_path / "flight_cache_hit.jsonl"
        path.write_text("\n".join(lines) + "\n")
        journal = load_flight_journal(path)
        db = build_dataset(
            journal.header["profile"], scale=journal.header["scale"]
        )
        db.use_distance_backend(journal_backend(journal.header))
        report = run_replay(db, journal)
        assert report.queries_replayed == 24
        if hit:
            assert report.passed, [d.render() for d in report.divergences]
        else:
            assert {d.fieldname for d in report.divergences} == {
                "candidates", "nodes_accessed", "edges_accessed",
                "objects_loaded", "pairwise_dijkstras",
            }

    def test_journal_backend(self):
        assert journal_backend({"distance_backend": "dijkstra"}) == "dijkstra"
        for retired in ("ch", "hub"):
            assert journal_backend({"distance_backend": retired}) == "csgraph"
        # A header with no stamp predates it, and every backend but
        # the Python Dijkstra.
        assert journal_backend({}) == "dijkstra"
        assert journal_backend({"distance_backend": "astar"}) is None

    def test_concurrent_replay_zero_divergences(self, journal_path):
        report = run_replay(
            fresh_db(), load_flight_journal(journal_path),
            ReplayConfig(workers=4),
        )
        assert report.passed
        assert report.workers == 4

    def test_limit_caps_queries(self, journal_path):
        report = run_replay(
            fresh_db(), load_flight_journal(journal_path),
            ReplayConfig(limit=2),
        )
        assert report.queries_replayed == 2
        assert report.passed


class TestReplayCatchesDivergence:
    def test_tampered_digest_caught(self, journal_path):
        journal = load_flight_journal(journal_path)
        journal.queries[2]["digest"] = "0" * 16
        report = run_replay(fresh_db(), journal)
        assert not report.passed
        fields = {d.fieldname for d in report.divergences}
        assert fields == {"digest"}
        diverged = sum(
            slot["diverged"] for slot in report.per_label.values()
        )
        assert diverged == 1
        assert "FAIL — 1 divergence(s)" in report.render()

    def test_divergences_counted_per_query_and_per_field(
        self, journal_path
    ):
        """Three tampered queries, four divergences over two fields: the
        report counts both before it lists any, and carries both."""
        journal = load_flight_journal(journal_path)
        for record in journal.queries[:3]:
            record["stats"]["candidates"] += 5
        journal.queries[2]["digest"] = "0" * 16
        report = run_replay(fresh_db(), journal)
        assert report.queries_diverged == 3
        assert report.divergences_by_field() == {"candidates": 3, "digest": 1}
        text = report.render()
        counted = (
            "3 of 6 queries diverged; divergences by field: "
            "candidates 3, digest 1"
        )
        assert counted in text
        assert text.index(counted) < text.index("DIVERGENCE")
        summary = report.summary_record()
        assert summary["queries_diverged"] == 3
        assert summary["divergences_by_field"] == {
            "candidates": 3, "digest": 1,
        }

    def test_tampered_invariant_counter_caught(self, journal_path):
        journal = load_flight_journal(journal_path)
        journal.queries[0]["stats"]["candidates"] += 5
        report = run_replay(fresh_db(), journal)
        assert {d.fieldname for d in report.divergences} == {"candidates"}

    def test_tampered_core_pair_work_caught(self, journal_path):
        """COM's θ evaluations and its early stop are invariants too: a
        change to core-pair maintenance that leaves the expansion shape
        alone still diverges."""
        journal = load_flight_journal(journal_path)
        record = next(
            q for q in journal.queries if q["stats"]["theta_evaluations"]
        )
        record["stats"]["theta_evaluations"] += 1
        record["stats"]["expansion_terminated_early"] = (
            not record["stats"]["expansion_terminated_early"]
        )
        report = run_replay(fresh_db(), journal)
        assert sorted((d.fieldname, d.seq) for d in report.divergences) == [
            ("expansion_terminated_early", record["seq"]),
            ("theta_evaluations", record["seq"]),
        ]

    def test_tampered_pairwise_work_caught(self, journal_path):
        """The pairwise searches a query ran and its kept-row lookups
        are invariants on every backend: a change to how a pool's pairs
        are resolved that keeps every answer still diverges."""
        journal = load_flight_journal(journal_path)
        record = next(
            q for q in journal.queries if q["stats"]["distance_cache_hits"]
        )
        record["stats"]["distance_cache_hits"] += 1
        record["stats"]["pairwise_dijkstras"] += 1
        record["stats"]["distance_cache_misses"] -= 1
        report = run_replay(fresh_db(), journal)
        assert sorted((d.fieldname, d.seq) for d in report.divergences) == [
            ("distance_cache_hits", record["seq"]),
            ("distance_cache_misses", record["seq"]),
            ("pairwise_dijkstras", record["seq"]),
        ]

    def test_tampered_expansion_shape_caught(self, journal_path):
        journal = load_flight_journal(journal_path)
        journal.queries[1]["stats"]["edges_accessed"] += 1
        report = run_replay(fresh_db(), journal)
        assert [
            (d.fieldname, d.seq) for d in report.divergences
        ] == [("edges_accessed", journal.queries[1]["seq"])]

    def test_perturbed_backend_caught(self, journal_path, monkeypatch):
        db = fresh_db()
        oracle = PerturbingBackend(db.hub_oracle())

        def perturbed_computer(delta_max, tracer=None):
            return PairwiseDistanceComputer(
                db.ccam, db.network,
                cutoff=PAIRWISE_CUTOFF_FACTOR * delta_max, backend=oracle,
            )

        monkeypatch.setattr(db, "pairwise_computer", perturbed_computer)
        report = run_replay(db, load_flight_journal(journal_path))
        assert not report.passed
        # The warp moves objectives/digests, never the INE search shape.
        fields = {d.fieldname for d in report.divergences}
        assert fields <= {"digest", "objective", "results"}
        assert "digest" in fields

    def test_missing_update_breaks_epoch_alignment(self, journal_path):
        journal = load_flight_journal(journal_path)
        dropped = journal.updates.pop()  # lose the edge reweight
        assert dropped["kind"] == "edge_weight"
        report = run_replay(fresh_db(), journal)
        assert not report.passed
        assert any(
            d.fieldname == "data_version" for d in report.divergences
        )


class TestReplayReportShape:
    def test_row_and_summary_record(self, journal_path):
        report = run_replay(fresh_db(), load_flight_journal(journal_path),
                            journal_path=str(journal_path))
        row = report.row()
        assert row["verdict"] == "PASS"
        assert row["queries"] == 6
        assert row["updates"] == 3
        assert math.isfinite(row["wall_s"])
        summary = report.summary_record()
        assert summary["type"] == "replay"
        assert summary["divergences"] == []

    def test_unknown_index_name_rejected(self):
        journal = FlightJournal(
            queries=[{
                "type": "flight", "kind": "sk", "label": "X", "index": "BOGUS",
                "epoch": 0, "digest": "", "results": 0,
                "query": {"position": {"edge_id": 0, "offset": 0.0},
                          "terms": ["t0"], "delta_max": 100.0},
            }],
        )
        with pytest.raises(QueryError):
            run_replay(fresh_db(), journal)


#: An SK kNN record (``kind: knn``) as the kNN executor wrote it before
#: kNN became an SK query with a ``limit``, and an SK range record of
#: the same moment: TINY, SIF, the position of object 42.
LEGACY_KNN_RECORD = {
    "type": "flight", "kind": "knn", "label": "SIF/INE-KNN",
    "algorithm": "ine-knn", "index": "SIF",
    "query": {"position": {"edge_id": 104, "offset": 58.7502646705722},
              "terms": ["t17"], "k": 5, "horizon": 1000000000.0},
    "epoch": 0, "results": 5,
    "stats": {"nodes_accessed": 5, "edges_accessed": 12,
              "objects_loaded": 5, "false_hit_objects": 0, "candidates": 5,
              "pairwise_dijkstras": 0, "theta_evaluations": 0,
              "expansion_terminated_early": False,
              "distance_backend": "csgraph"},
    "sequence": 0, "digest": "afaadcedb374f6e7", "seq": 1,
}
SK_RECORD = (
    '{"type": "flight", "kind": "sk", "label": "SIF/INE", "algorithm": '
    '"ine", "index": "SIF", "query": {"position": {"edge_id": 104, '
    '"offset": 58.7502646705722}, "terms": ["t17"], "delta_max": 1500.0}, '
    '"epoch": 0, "results": 5, "stats": {"nodes_accessed": 8, '
    '"edges_accessed": 18, "objects_loaded": 6, "false_hit_objects": 0, '
    '"candidates": 5, "pairwise_dijkstras": 0, "theta_evaluations": 0, '
    '"expansion_terminated_early": false, "io": {"logical_reads": 13, '
    '"physical_reads": 1, "buffer_hits": 12}, "distance_cache_hits": 0, '
    '"distance_cache_misses": 0, "buffer_evictions": 0, '
    '"distance_backend": "csgraph", "epoch": 0}, "sequence": 1, "hints": '
    '{"distance_backend": "csgraph", "data_version": 0, '
    '"estimated_matches": 109.0}, "digest": "afaadcedb374f6e7", "seq": 2}'
)


class TestLimitedSKQueries:
    """kNN is an SK query with a ``limit``; the journal says so only
    when the limit is set."""

    def record(self, path):
        db = fresh_db()
        index = db.build_index("sif")
        recorder = db.enable_flight_recorder(path=path)
        recorder.set_header(
            profile="TINY", scale=1.0, seed=TINY_PROFILE.seed,
            distance_backend=db.distance_backend, data_version=0,
        )
        at = list(db.store)[42].position
        for i, query in enumerate((
            SKQuery.create(at, ["t17"], 1e9, limit=5),
            SKQuery.create(at, ["t17"], 1500.0),
        )):
            db.engine.execute(plan_sk(db, index, query), sequence=i)
        db.disable_flight_recorder()
        return load_flight_journal(path)

    def test_limited_query_replays_clean(self, tmp_path):
        journal = self.record(tmp_path / "limited.jsonl")
        limited, unlimited = journal.queries
        assert limited["query"]["limit"] == 5
        assert limited["results"] == 5
        assert "limit" not in unlimited["query"]
        report = run_replay(fresh_db(), journal)
        assert report.passed, [d.render() for d in report.divergences]
        assert report.queries_replayed == 2

    def test_unlimited_record_is_unchanged(self, tmp_path):
        """An SK range record carries no ``limit`` key: it is the record
        the executor wrote before the field existed, timings aside."""
        record = self.record(tmp_path / "sk.jsonl").queries[1]
        for key in ("wall_seconds", "worker"):
            record.pop(key)
        for key in ("wall_seconds", "stage_seconds"):
            record["stats"].pop(key)
        assert json.dumps(record) == SK_RECORD

    def test_legacy_knn_record_replays_as_a_limited_query(self, tmp_path):
        path = tmp_path / "legacy_knn.jsonl"
        header = {
            "type": "flight_header", "version": 1, "profile": "TINY",
            "scale": 1.0, "seed": TINY_PROFILE.seed,
            "distance_backend": "csgraph", "data_version": 0,
        }
        path.write_text(
            json.dumps(header) + "\n" + json.dumps(LEGACY_KNN_RECORD) + "\n"
        )
        report = run_replay(fresh_db(), load_flight_journal(path))
        assert report.passed, [d.render() for d in report.divergences]
        assert report.queries_replayed == 1
        assert set(report.per_label) == {"SIF/INE-KNN"}
