"""Fig. 13 — diversified search vs the search range δmax (NA).

Expected shape: COM beats SEQ at every δmax and the gap widens with the
range — SEQ must load *all* candidates and compute their pairwise
distances, while COM's diversity pruning caps the useful frontier.
Cost is page reads, as in the paper's disk-resident setting.
"""

from conftest import seq_vs_com

from repro.workloads.queries import WorkloadConfig

DELTAS = (1250, 1750, 2250, 2750)


def test_fig13_div_range(ctx, show):
    rows = []
    for delta in DELTAS:
        config = WorkloadConfig(
            num_queries=8, num_keywords=3, k=6, lambda_=0.8,
            delta_max=float(delta), seed=1313,
        )
        rows.append({"delta_max": delta, **seq_vs_com(ctx, "NA", config)})
    show(rows, "Fig 13: diversified search vs delta_max on NA")

    for row in rows:
        assert row["COM_pages"] <= row["SEQ_pages"] * 1.10, row
    # The gap widens with the search range (paper: "especially when the
    # search range is larger").
    first_gap = rows[0]["SEQ_pages"] / max(rows[0]["COM_pages"], 1e-9)
    last_gap = rows[-1]["SEQ_pages"] / max(rows[-1]["COM_pages"], 1e-9)
    assert last_gap >= first_gap * 0.95
    assert rows[-1]["SEQ_pages"] - rows[-1]["COM_pages"] > (
        rows[0]["SEQ_pages"] - rows[0]["COM_pages"]
    )
