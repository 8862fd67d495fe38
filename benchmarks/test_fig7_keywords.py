"""Fig. 7 — SK search vs the number of query keywords l (dataset NA).

Disk accesses (the paper's Fig. 7(b), and what its response time in
7(a) is made of) and CPU ms for IF / SIF / SIF-P, l = 1..4.
Expected shape: all degrade as l grows (each keyword costs a B+-tree
descent and postings reads, and the search region δmax = 500·l also
grows); SIF significantly outperforms IF; SIF-P is at least as good as
SIF.
"""

from conftest import sk_per_index

from repro.workloads.queries import WorkloadConfig

INDEXES = ("if", "sif", "sif-p")
L_VALUES = (1, 2, 3, 4)


def test_fig7_keyword_sweep(ctx, show):
    rows = []
    for l in L_VALUES:
        config = WorkloadConfig(num_queries=25, num_keywords=l, seed=707)
        rows.append({"l": l, **sk_per_index(ctx, "NA", INDEXES, config)})
    show(rows, "Fig 7: SK query cost vs l on NA")

    for row in rows:
        assert row["SIF_pages"] <= row["IF_pages"] * 1.05, row
        assert row["SIF-P_pages"] <= row["SIF_pages"] * 1.10, row
    # Performance degrades with l (compare the sweep's endpoints).
    for kind in ("IF", "SIF"):
        assert rows[-1][f"{kind}_pages"] > rows[0][f"{kind}_pages"], kind
