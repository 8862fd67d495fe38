"""Tests for the §3.2 analytical cost model, validated empirically.

The model assumes keywords drawn independently and uniformly; the
empirical check builds exactly such a dataset (``zipf_z=0``,
``num_topics=1``) and compares measured object loads per index against
the model's C1/C2/C3 predictions.
"""

import pytest

from repro.core.analysis import CostModel
from repro.core.ine import INEExpansion
from repro.datasets.catalog import DatasetProfile, build_dataset
from repro.errors import QueryError
from repro.index.base import LoadCounters
from repro.workloads.queries import WorkloadConfig, generate_sk_queries


class TestModelAlgebra:
    def test_validation(self):
        with pytest.raises(QueryError):
            CostModel(-1, 2, 10)
        with pytest.raises(QueryError):
            CostModel(3, 20, 10)
        with pytest.raises(QueryError):
            CostModel(3, 2, 0)

    def test_presence_probability_limits(self):
        # No objects -> no keyword can be present.
        assert CostModel(0, 5, 100).keyword_presence_probability == 0.0
        # Objects covering the whole vocabulary -> always present.
        assert CostModel(3, 100, 100).keyword_presence_probability == 1.0

    def test_presence_probability_monotone_in_m(self):
        sparse = CostModel(1, 5, 100).keyword_presence_probability
        dense = CostModel(10, 5, 100).keyword_presence_probability
        assert dense > sparse

    def test_c1_independent_of_keywords(self):
        model = CostModel(4, 5, 100)
        assert model.c1_edge_store(10) == 40

    def test_c2_scales_with_keywords(self):
        model = CostModel(4, 5, 100)
        assert model.c2_inverted_file(10, 2) == pytest.approx(
            2 * model.c2_inverted_file(10, 1)
        )

    def test_c3_below_c2(self):
        model = CostModel(4, 5, 100)
        for l in (1, 2, 3, 4):
            assert model.c3_signature(10, l) <= model.c2_inverted_file(10, l)

    def test_signature_gain_grows_with_keywords(self):
        """More query keywords -> stronger AND pruning -> bigger C2/C3 gap."""
        model = CostModel(2, 5, 200)
        ratios = [
            model.c3_signature(10, l) / model.c2_inverted_file(10, l)
            for l in (1, 2, 3, 4)
        ]
        assert ratios == sorted(ratios, reverse=True)

    def test_ordering_holds(self):
        """The paper's conclusion: ``C3 <= C2 <= l · C1`` whenever the
        vocabulary is larger than the keyword sets."""
        model = CostModel(4, 5, 100)
        c1 = model.c1_edge_store(10)
        c2 = model.c2_inverted_file(10, 3)
        assert model.c3_signature(10, 3) <= c2 <= 3 * c1


UNIFORM = DatasetProfile(
    name="UNIFORM",
    network_kind="planar",
    num_nodes=400,
    neighbours=3,
    num_objects=4000,
    vocabulary_size=120,
    avg_keywords=5,
    zipf_z=0.0,   # uniform keywords: the model's assumption
    num_topics=1,  # independent keywords
    seed=77,
)


class TestEmpiricalValidation:
    @pytest.fixture(scope="class")
    def setup(self):
        db = build_dataset(UNIFORM)
        indexes = {
            "ccam": db.build_index("ccam"),
            "if": db.build_index("if"),
            "sif": db.build_index("sif"),
        }
        model = CostModel.from_store(db.store)
        return db, indexes, model

    def _measure(self, db, index, queries):
        """(total objects loaded, total edges accessed) over a workload."""
        index.lifetime_counters = LoadCounters()
        edges = 0
        for q in queries:
            exp = INEExpansion(
                db.ccam, db.network, index, q.position, q.terms, q.delta_max
            )
            exp.run_to_completion()
            edges += exp.stats.edges_accessed
        return index.lifetime_counters.objects_loaded, edges

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_predictions_match_measurements(self, setup, l):
        db, indexes, model = setup
        queries = generate_sk_queries(
            db,
            WorkloadConfig(num_queries=30, num_keywords=l,
                           keyword_source="frequency", delta_max=2500.0,
                           seed=l),
        )
        measured_c1, edges = self._measure(db, indexes["ccam"], queries)
        measured_c2, _ = self._measure(db, indexes["if"], queries)
        measured_c3, _ = self._measure(db, indexes["sif"], queries)

        predicted_c1 = model.c1_edge_store(edges)
        predicted_c2 = model.c2_inverted_file(edges, l)
        predicted_c3 = model.c3_signature(edges, l)

        # C1 and C2 predictions land within 35 % of measurements.
        assert measured_c1 == pytest.approx(predicted_c1, rel=0.35)
        assert measured_c2 == pytest.approx(predicted_c2, rel=0.35)
        # C3 assumes homogeneous edges; real edges vary in object count
        # (length-weighted placement), and dense edges both pass the
        # signature test more often *and* hold more postings, so the
        # closed form is a lower bound that loosens as l grows.
        assert predicted_c3 * 0.65 <= measured_c3 <= predicted_c3 * 2.5
        # Either way the signature never loads more than the plain
        # inverted file.
        assert measured_c3 <= measured_c2 + 1e-9

    def test_measured_ordering(self, setup):
        db, indexes, model = setup
        queries = generate_sk_queries(
            db,
            WorkloadConfig(num_queries=30, num_keywords=2,
                           keyword_source="frequency", delta_max=2500.0,
                           seed=9),
        )
        c1, _ = self._measure(db, indexes["ccam"], queries)
        c2, _ = self._measure(db, indexes["if"], queries)
        c3, _ = self._measure(db, indexes["sif"], queries)
        assert c3 <= c2 <= c1
