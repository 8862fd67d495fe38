"""Fig. 15 — diversified search vs the trade-off parameter λ (NA).

Expected shape: SEQ is insensitive to λ (it always retrieves every
candidate); COM improves as λ grows because prioritising relevance
shrinks the diversity bounds faster and terminates the expansion
earlier.
"""

from conftest import seq_vs_com

from repro.workloads.queries import WorkloadConfig

LAMBDAS = (0.5, 0.6, 0.7, 0.8, 0.9)


def test_fig15_lambda(ctx, show):
    rows = []
    for lam in LAMBDAS:
        config = WorkloadConfig(
            num_queries=8, num_keywords=3, k=6, lambda_=lam,
            delta_max=2500.0, seed=1515,
        )
        rows.append({"lambda": lam, **seq_vs_com(ctx, "NA", config)})
    show(rows, "Fig 15: diversified search vs lambda on NA")

    for row in rows:
        assert row["COM_cands"] <= row["SEQ_cands"], row
        assert row["COM_dijkstras"] <= row["SEQ_dijkstras"], row
        # Where the bounds stop nothing (λ = 0.5: no early termination,
        # SEQ's candidates), COM's Dijkstras interleave with the
        # expansion and evict its pages, so it can read more than SEQ.
        if row["COM_early_term_pct"] > 0:
            assert row["COM_pages"] <= row["SEQ_pages"] * 1.05, row
    # SEQ flat in lambda; COM keeps fewer candidates, reads fewer pages
    # and stops its expansion early more often as lambda grows.
    seq_values = [r["SEQ_cands"] for r in rows]
    assert max(seq_values) == min(seq_values)
    assert rows[-1]["COM_cands"] <= rows[0]["COM_cands"]
    assert rows[-1]["COM_pages"] <= rows[0]["COM_pages"] * 1.05
    assert rows[-1]["COM_early_term_pct"] >= rows[0]["COM_early_term_pct"]
