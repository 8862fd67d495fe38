"""Fig. 14 — diversified search vs the result size k (NA).

Expected shape: SEQ is insensitive to k (its cost is retrieving all
candidates and their pairwise distances); COM degrades as k grows
because a larger k lowers the pruning threshold θ_T.
"""

from conftest import seq_vs_com

from repro.workloads.queries import WorkloadConfig

K_VALUES = (5, 10, 15, 20)


def test_fig14_k(ctx, show):
    rows = []
    for k in K_VALUES:
        config = WorkloadConfig(
            num_queries=8, num_keywords=3, k=k, lambda_=0.8,
            delta_max=2750.0, seed=1414,
        )
        rows.append({"k": k, **seq_vs_com(ctx, "NA", config)})
    show(rows, "Fig 14: diversified search vs k on NA")

    for row in rows:
        assert row["COM_pages"] <= row["SEQ_pages"] * 1.05, row
    # SEQ is flat in k (same candidates regardless).
    seq_values = [r["SEQ_cands"] for r in rows]
    assert max(seq_values) == min(seq_values)
    # COM processes more candidates as k grows (lower θ_T, weaker
    # pruning) — compare sweep endpoints.
    assert rows[-1]["COM_cands"] >= rows[0]["COM_cands"]
