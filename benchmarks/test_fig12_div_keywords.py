"""Fig. 12 — diversified search vs the number of query keywords (NA).

Expected shape: COM significantly outperforms SEQ at every l; COM's
cost grows with l (the search region δmax = 500·l grows and more
objects are involved).  Cost is page reads, as in the paper's
disk-resident setting.
"""

from conftest import seq_vs_com

from repro.workloads.queries import WorkloadConfig

L_VALUES = (1, 2, 3, 4)
K = 6


def test_fig12_div_keywords(ctx, show):
    rows = []
    for l in L_VALUES:
        config = WorkloadConfig(
            num_queries=8, num_keywords=l, k=K, lambda_=0.8,
            delta_max=850.0 * l, seed=1212,
        )
        rows.append({"l": l, **seq_vs_com(ctx, "NA", config)})
    show(rows, "Fig 12: diversified search vs l on NA")

    for row in rows:
        # When the candidate set barely exceeds k there is nothing to
        # prune and COM can only tie; the paper's claims concern the
        # large-candidate regime.
        slack = 1.10 if row["SEQ_cands"] > 1.5 * K else 1.30
        assert row["COM_pages"] <= row["SEQ_pages"] * slack, row
        assert row["COM_cands"] <= row["SEQ_cands"] * 1.02, row
    # COM consistently degrades as l grows (paper's observation).
    assert rows[-1]["COM_pages"] > rows[0]["COM_pages"]
    # And clearly beats SEQ once candidates outnumber k.
    big = [r for r in rows if r["SEQ_cands"] > 1.5 * K]
    assert big and all(r["COM_pages"] < r["SEQ_pages"] for r in big)
