"""Fig. 6 — SK search across the four datasets and four indexes.

(a) query cost, (b) index construction time, (c) index size.

Expected shapes (paper §5.1): IR is the slowest by a large factor
(network-oblivious, pays per-candidate verification); IF improves on it;
SIF and SIF-P improve on IF via signature pruning.  SIF-P has the
longest construction time (edge partitioning); SIF/SIF-P sizes are only
slightly above IF (signatures are compact).

The paper's response time is that of a disk-resident index, so (a)
carries its claim on counts — page reads, and the false-hit objects
§3.1's signature test exists to avoid — with CPU ms in its own columns.
"""

from conftest import sk_per_index

from repro.workloads.queries import WorkloadConfig

DATASETS = ("NA", "SF", "TW", "SYN")
INDEXES = ("ir", "if", "sif", "sif-p")
CONFIG = WorkloadConfig(num_queries=25, num_keywords=3, seed=606)


def test_fig6a_response_time(ctx, show):
    rows = [
        {"dataset": dataset, **sk_per_index(ctx, dataset, INDEXES, CONFIG)}
        for dataset in DATASETS
    ]
    show(rows, "Fig 6(a): SK query cost per dataset")

    for row in rows:
        # IR is the outlier; the signature test spares SIF and SIF-P
        # the objects IF loads from edges that cannot match (§3.1).
        assert row["IR_pages"] > row["SIF_pages"], row
        for kind in ("SIF", "SIF-P"):
            assert row[f"{kind}_false_hits"] <= row["IF_false_hits"], row
            # The pages SIF asks for are a subset of IF's.  Behind an
            # 8-page buffer that did not make it read fewer (TW at scale
            # 0.25: x 1.05), so this needed slack; behind 2 % of the
            # pages it holds strictly on all four datasets at 0.25 and 1.0.
            assert row[f"{kind}_pages"] <= row["IF_pages"], row
    total = {
        kind: sum(r[f"{kind}_pages"] for r in rows)
        for kind in map(str.upper, INDEXES)
    }
    assert total["SIF"] < total["IF"] and total["SIF-P"] < total["IF"], total
    # Aggregate: IR is clearly the most expensive overall (paper: ~4x).
    assert total["IR"] > 1.5 * total["SIF"]


def test_fig6b_construction_time(ctx, show):
    def sweep():
        rows = []
        for dataset in DATASETS:
            row = {"dataset": dataset}
            for kind in INDEXES:
                index = ctx.index(dataset, kind)
                row[kind.upper()] = round(index.build_seconds, 3)
            rows.append(row)
        return rows

    rows = sweep()
    show(rows, "Fig 6(b): index construction time (s)")

    for row in rows:
        # SIF-P pays for partitioning: the longest build among the
        # inverted-file family.  (SIF builds an IF plus signatures, so
        # it is logically >= IF, but the two single-run times are too
        # close to compare; the partitioning cost is the robust signal.)
        assert row["SIF-P"] >= row["SIF"], row


def test_fig6c_index_size(ctx, show):
    def sweep():
        rows = []
        for dataset in DATASETS:
            row = {"dataset": dataset}
            for kind in INDEXES:
                index = ctx.index(dataset, kind)
                row[kind.upper()] = round(index.size_bytes() / (1 << 20), 2)
            rows.append(row)
        return rows

    rows = sweep()
    show(rows, "Fig 6(c): index size (MiB)")

    for row in rows:
        # Signatures are compact: SIF within 15 % of IF, SIF-P within
        # 20 % (paper: "only take slightly more space").
        assert row["IF"] <= row["SIF"] <= row["IF"] * 1.15, row
        assert row["SIF-P"] <= row["IF"] * 1.20, row
