"""Fig. 8 — SK search vs the maximal search distance δmax.

(a) cost of IF / SIF / SIF-P on NA as δmax grows 250 → 1500: IF is much
more sensitive (false hits grow with the region; IF cannot avoid their
I/O).  The cost is page reads, with CPU ms beside them; IF reads more
pages than SIF at every δmax, and the sensitivity is asserted on the
false hits, whose page cost the 2 % buffer mostly absorbs.  (b) the
number of candidate objects on all four datasets grows with δmax.
"""

from conftest import sk_per_index

from repro.workloads.queries import WorkloadConfig

DELTAS = (250, 500, 750, 1000, 1250, 1500)
INDEXES = ("if", "sif", "sif-p")
DATASETS = ("NA", "SF", "TW", "SYN")


def test_fig8a_response_time(ctx, show):
    rows = []
    for delta in DELTAS:
        config = WorkloadConfig(
            num_queries=25, num_keywords=3, delta_max=float(delta), seed=808
        )
        rows.append(
            {"delta_max": delta, **sk_per_index(ctx, "NA", INDEXES, config)}
        )
    show(rows, "Fig 8(a): SK query cost vs delta_max on NA")

    for row in rows:
        assert row["SIF_pages"] <= row["IF_pages"] * 1.05, row
    # IF's false hits grow with the region and SIF's barely do.  What
    # they cost in pages the 2 % buffer mostly absorbs, so the growth
    # is compared on the false hits, not on the pages.
    def growth(column):
        return rows[-1][column] - rows[0][column]

    assert growth("IF_false_hits") > 10 * growth("SIF_false_hits") > 0
    # Everything degrades with the search radius.
    assert rows[-1]["SIF_pages"] > rows[0]["SIF_pages"]


def test_fig8b_candidates(ctx, show):
    def sweep():
        rows = []
        for delta in DELTAS:
            config = WorkloadConfig(
                num_queries=25, num_keywords=3, delta_max=float(delta), seed=808
            )
            row = {"delta_max": delta}
            for dataset in DATASETS:
                report = ctx.sk_report(dataset, "sif", config)
                row[dataset] = round(report.avg_candidates, 1)
            rows.append(row)
        return rows

    rows = sweep()
    show(rows, "Fig 8(b): candidate objects vs delta_max")

    for dataset in DATASETS:
        assert rows[-1][dataset] > rows[0][dataset], dataset
        # Monotone up to small noise.
        values = [r[dataset] for r in rows]
        assert all(b >= a * 0.8 for a, b in zip(values, values[1:])), dataset
