"""§3.2 performance-analysis table: predicted vs measured object loads.

The paper derives expected object loads C1 (objects with edges), C2
(inverted file) and C3 (signature-based inverted file) and concludes
"the signature-based inverted indexing technique is expected to achieve
better performance compared with other two alternatives".  This
benchmark measures all three on a dataset matching the model's
assumptions and prints them against the closed-form predictions.
"""

from repro.core.analysis import CostModel
from repro.core.ine import INEExpansion
from repro.datasets.catalog import DatasetProfile, build_dataset
from repro.index.base import LoadCounters
from repro.workloads.queries import WorkloadConfig, generate_sk_queries

UNIFORM = DatasetProfile(
    name="UNIFORM",
    network_kind="planar",
    num_nodes=600,
    neighbours=3,
    num_objects=6000,
    vocabulary_size=150,
    avg_keywords=5,
    zipf_z=0.0,
    num_topics=1,
    seed=99,
)


def test_analysis_cost_model(ctx, show):
    def sweep():
        db = build_dataset(UNIFORM)
        indexes = {
            "ccam": db.build_index("ccam"),
            "if": db.build_index("if"),
            "sif": db.build_index("sif"),
        }
        model = CostModel.from_store(db.store)
        rows = []
        for l in (1, 2, 3):
            queries = generate_sk_queries(
                db,
                WorkloadConfig(num_queries=30, num_keywords=l,
                               keyword_source="frequency",
                               delta_max=2500.0, seed=l),
            )
            measured = {}
            edges = 0
            for kind, index in indexes.items():
                index.lifetime_counters = LoadCounters()
                edges = 0
                for q in queries:
                    exp = INEExpansion(
                        db.ccam, db.network, index, q.position, q.terms,
                        q.delta_max,
                    )
                    exp.run_to_completion()
                    edges += exp.stats.edges_accessed
                measured[kind] = index.lifetime_counters.objects_loaded
            rows.append(
                {
                    "l": l,
                    "C1_pred": round(model.c1_edge_store(edges), 0),
                    "C1_meas": measured["ccam"],
                    "C2_pred": round(model.c2_inverted_file(edges, l), 0),
                    "C2_meas": measured["if"],
                    "C3_pred": round(model.c3_signature(edges, l), 0),
                    "C3_meas": measured["sif"],
                }
            )
        return rows

    rows = sweep()
    show(rows, "Analysis (§3.2): predicted vs measured object loads")

    for row in rows:
        # The paper's conclusion: C3 <= C2 <= C1, in prediction and
        # in measurement.
        assert row["C3_meas"] <= row["C2_meas"] <= row["C1_meas"], row
        assert row["C3_pred"] <= row["C2_pred"] <= row["C1_pred"], row
        # Closed forms track measurements (C1/C2 tightly; C3 is a
        # homogeneity-assuming lower bound).
        assert row["C1_meas"] <= row["C1_pred"] * 1.5
        assert row["C2_meas"] <= row["C2_pred"] * 1.5
        assert row["C3_meas"] >= row["C3_pred"] * 0.5
