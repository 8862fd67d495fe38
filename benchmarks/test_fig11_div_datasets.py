"""Fig. 11 — diversified SK search, SEQ vs COM, on all four datasets.

Expected shape (paper §5.2): COM significantly outperforms SEQ on every
dataset because the diversity bounds prune non-promising objects and
terminate the network expansion early.  The cost the paper plots is
disk-resident, so the claim is carried by page reads — and by what
drives them: the candidates kept and the pairwise Dijkstras run.
"""

from conftest import seq_vs_com

from repro.workloads.queries import WorkloadConfig

DATASETS = ("NA", "SF", "TW", "SYN")
CONFIG = WorkloadConfig(num_queries=8, num_keywords=3, k=6, lambda_=0.8,
                        delta_max=2500.0, seed=1111)


def test_fig11_div_datasets(ctx, show):
    rows = [
        {"dataset": dataset, **seq_vs_com(ctx, dataset, CONFIG)}
        for dataset in DATASETS
    ]
    show(rows, "Fig 11: diversified search SEQ vs COM per dataset")

    for row in rows:
        assert row["COM_pages"] <= row["SEQ_pages"] * 1.05, row
        assert row["COM_cands"] <= row["SEQ_cands"], row
        assert row["COM_dijkstras"] <= row["SEQ_dijkstras"], row
    # COM wins clearly in aggregate (paper: a multiple, not a margin).
    seq_total = sum(r["SEQ_pages"] for r in rows)
    com_total = sum(r["COM_pages"] for r in rows)
    assert com_total * 1.5 < seq_total
