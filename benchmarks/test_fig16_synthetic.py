"""Fig. 16 — scalability sweeps on the synthetic dataset SYN.

(a) term-frequency skew z ∈ 0.9..1.3, (b) number of objects,
(c) keywords per object, (d) vocabulary size.  Expected shapes: both
algorithms degrade with z, object count and keywords per object, and
improve as the vocabulary grows; COM stays ahead of (or level with) SEQ
everywhere and scales better.  Cost is page reads, as in the paper's
disk-resident setting.
"""

from conftest import seq_vs_com

from repro.workloads.queries import WorkloadConfig

CONFIG = WorkloadConfig(num_queries=8, num_keywords=3, k=6, lambda_=0.8,
                        delta_max=2000.0, seed=1616)


def _sweep(ctx, x_name, x_values, override):
    """One row per value of the dataset parameter ``override``."""
    return [
        {x_name: x, **seq_vs_com(ctx, "SYN", CONFIG, {override: x})}
        for x in x_values
    ]


def test_fig16a_zipf_skew(ctx, show):
    rows = _sweep(ctx, "z", (0.9, 1.0, 1.1, 1.2, 1.3), "zipf_z")
    show(rows, "Fig 16(a): diversified search vs Zipf skew z (SYN)")
    for row in rows:
        assert row["COM_pages"] <= row["SEQ_pages"] * 1.05, row
    # Higher skew -> more matching objects -> both degrade.
    assert rows[-1]["SEQ_cands"] > rows[0]["SEQ_cands"]
    assert rows[-1]["SEQ_pages"] > rows[0]["SEQ_pages"]


def test_fig16b_num_objects(ctx, show):
    base = 20000
    rows = _sweep(
        ctx, "num_objects",
        [int(base * factor) for factor in (0.5, 1.0, 1.5, 2.0)],
        "num_objects",
    )
    show(rows, "Fig 16(b): diversified search vs number of objects (SYN)")
    for row in rows:
        assert row["COM_pages"] <= row["SEQ_pages"] * 1.05, row
    assert rows[-1]["SEQ_pages"] > rows[0]["SEQ_pages"]
    assert rows[-1]["SEQ_cands"] > rows[0]["SEQ_cands"]
    # COM's growth is gentler than SEQ's (paper: "less significant").
    seq_growth = rows[-1]["SEQ_pages"] / max(rows[0]["SEQ_pages"], 1e-9)
    com_growth = rows[-1]["COM_pages"] / max(rows[0]["COM_pages"], 1e-9)
    assert com_growth <= seq_growth * 1.10


def test_fig16c_keywords_per_object(ctx, show):
    rows = _sweep(ctx, "kw_per_obj", (5, 10, 15, 20), "avg_keywords")
    show(rows, "Fig 16(c): diversified search vs keywords per object (SYN)")
    for row in rows:
        assert row["COM_pages"] <= row["SEQ_pages"] * 1.05, row
    # More keywords per object -> more objects satisfy the constraint.
    assert rows[-1]["SEQ_cands"] > rows[0]["SEQ_cands"]
    assert rows[-1]["SEQ_pages"] > rows[0]["SEQ_pages"]


def test_fig16d_vocabulary_size(ctx, show):
    # 200..1000 scaled stands in for the paper's 20K..100K.
    rows = _sweep(ctx, "vocab", (200, 400, 600, 800, 1000), "vocabulary_size")
    show(rows, "Fig 16(d): diversified search vs vocabulary size (SYN)")
    for row in rows:
        assert row["COM_pages"] <= row["SEQ_pages"] * 1.05, row
    # A larger vocabulary makes the AND constraint more selective:
    # fewer candidates, fewer pages.
    assert rows[-1]["SEQ_cands"] < rows[0]["SEQ_cands"]
    assert rows[-1]["SEQ_pages"] < rows[0]["SEQ_pages"]
