"""Tests for the dataset catalog (Table 2 profiles)."""

import hashlib

import pytest

from repro.datasets.catalog import PROFILES, DatasetProfile, build_dataset, build_network
from repro.errors import DatasetError


class TestProfiles:
    def test_all_four_paper_datasets_exist(self):
        assert set(PROFILES) == {"NA", "SF", "TW", "SYN"}

    def test_profiles_mirror_paper_shape(self):
        """Relative dataset properties from the paper's Table 2."""
        na, sf, tw = PROFILES["NA"], PROFILES["SF"], PROFILES["TW"]
        # TW is the biggest corpus with the biggest vocabulary.
        assert tw.num_objects > na.num_objects
        assert tw.vocabulary_size > na.vocabulary_size > sf.vocabulary_size
        # SF has by far the richest per-object keyword sets.
        assert sf.avg_keywords > tw.avg_keywords > na.avg_keywords

    def test_scaled(self):
        p = PROFILES["NA"].scaled(0.5)
        assert p.num_nodes == PROFILES["NA"].num_nodes // 2
        assert p.num_objects == PROFILES["NA"].num_objects // 2

    def test_scaled_invalid(self):
        with pytest.raises(DatasetError):
            PROFILES["NA"].scaled(0)

    def test_build_network_kinds(self):
        grid = build_network(PROFILES["NA"].scaled(0.05))
        planar = build_network(PROFILES["SF"].scaled(0.05))
        assert grid.num_nodes > 0
        assert planar.num_nodes > 0
        bad = DatasetProfile("X", "moebius", 10, 3, 10, 10, 2)
        with pytest.raises(DatasetError):
            build_network(bad)


class TestBuildDataset:
    def test_by_name_with_scale(self):
        db = build_dataset("NA", scale=0.05)
        stats = db.dataset_statistics()
        assert stats["num_objects"] > 0
        assert stats["num_nodes"] > 0

    def test_unknown_name(self):
        with pytest.raises(DatasetError):
            build_dataset("MARS")

    def test_overrides(self):
        db = build_dataset("SYN", scale=0.05, num_objects=123)
        assert db.dataset_statistics()["num_objects"] == 123

    def test_determinism(self):
        a = build_dataset("SYN", scale=0.05)
        b = build_dataset("SYN", scale=0.05)
        assert a.dataset_statistics() == b.dataset_statistics()
        for oa, ob in zip(a.store, b.store):
            assert oa.position == ob.position
            assert oa.keywords == ob.keywords

    def test_database_is_frozen_and_queryable(self):
        db = build_dataset("SYN", scale=0.05)
        index = db.build_index("sif")
        from repro.workloads.queries import WorkloadConfig, generate_sk_queries

        q = generate_sk_queries(db, WorkloadConfig(num_queries=1, seed=1))[0]
        db.sk_search(index, q)  # must not raise


def dataset_digest(db) -> str:
    """sha-256 over every edge and every object, by id."""
    h = hashlib.sha256()
    for e in sorted(db.network.edges(), key=lambda e: e.edge_id):
        h.update(repr((e.edge_id, e.n1, e.n2, e.weight)).encode())
    for o in sorted(db.store, key=lambda o: o.object_id):
        h.update(repr((
            o.object_id, o.position.edge_id, o.position.offset,
            sorted(o.keywords),
        )).encode())
    return h.hexdigest()


#: Read off the commit before PR 20 (``Generator.choice`` keyword draws,
#: ``cKDTree`` wiring).  Everything recorded downstream — the
#: ``perf/golden`` digests, ``benchmarks/results``, the page counts CI
#: compares — is a function of these bytes.  To change the generators on
#: purpose: new literals here, and ``perf/golden`` re-recorded in a
#: benchmark-only PR (DESIGN.md §2, "Generator output is pinned").
PINNED_DIGESTS = {
    ("SYN", 0.1): "44e99343ed97e6a62aea05677aee96d2b23e04dd479496a55c24e3634ee4f56d",
    ("NA", 0.1): "f0261b74fa677dfcef19ba9fe099bfa4ecaf09bd21fe5be81d7d5b752fae3676",
    ("SF", 0.1): "29334ace04c91922f787273c79329214f21198d17a15ce2a2ce09446d8d286dc",
    ("TW", 0.1): "4efc45c4a9e36148152e38aa13350d6148cf55c1a07eba9b0ebed747fbe6b06c",
    # The dataset perf/ and the figure suite run on.
    ("SYN", 1.0): "b5d68f4f384e640dd0c09a353217eeaf61548a281b7b45f8978d0f031e04ef93",
}


class TestGeneratorOutputIsPinned:
    @pytest.mark.parametrize("name,scale", sorted(PINNED_DIGESTS))
    def test_every_edge_and_object(self, name, scale):
        db = build_dataset(name, scale=scale)
        assert dataset_digest(db) == PINNED_DIGESTS[(name, scale)]
