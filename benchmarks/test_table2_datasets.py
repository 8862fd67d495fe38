"""Table 2 — dataset statistics.

Prints the reproduced dataset statistics next to the paper's originals
and checks the *relative* shape (which dataset is biggest, richest,
densest) is preserved at ~1/100 scale.
"""

#: The paper's Table 2 (original sizes, for the printed comparison).
PAPER_TABLE2 = {
    "NA": {"objects": "2.2M", "vocab": "208K", "kw/obj": 6.8, "nodes": "176K", "edges": "179K"},
    "SF": {"objects": "2.25M", "vocab": "81K", "kw/obj": 26, "nodes": "175K", "edges": "223K"},
    "TW": {"objects": "11.5M", "vocab": "1.6M", "kw/obj": 10.8, "nodes": "321K", "edges": "800K"},
    "SYN": {"objects": "1M", "vocab": "100K", "kw/obj": 15, "nodes": "17K", "edges": "223K"},
}


def test_table2_dataset_statistics(ctx, show):
    def build_all():
        rows = []
        for name in ("NA", "SF", "TW", "SYN"):
            db = ctx.database(name)
            stats = db.dataset_statistics()
            paper = PAPER_TABLE2[name]
            rows.append(
                {
                    "dataset": name,
                    "objects": stats["num_objects"],
                    "paper_objects": paper["objects"],
                    "vocab": stats["vocabulary_size"],
                    "paper_vocab": paper["vocab"],
                    "kw_per_obj": stats["avg_keywords"],
                    "paper_kw": paper["kw/obj"],
                    "nodes": stats["num_nodes"],
                    "edges": stats["num_edges"],
                }
            )
        return rows

    rows = build_all()
    show(rows, "Table 2: dataset statistics (reproduced vs paper)")

    by_name = {r["dataset"]: r for r in rows}
    # TW is the largest corpus with the largest vocabulary.
    assert by_name["TW"]["objects"] == max(r["objects"] for r in rows)
    assert by_name["TW"]["vocab"] == max(r["vocab"] for r in rows)
    # SF has the richest keyword sets; NA the leanest of the real sets.
    assert by_name["SF"]["kw_per_obj"] > by_name["TW"]["kw_per_obj"]
    assert by_name["TW"]["kw_per_obj"] > by_name["NA"]["kw_per_obj"]
    # TW's road network is the densest (edges per node).
    tw_density = by_name["TW"]["edges"] / by_name["TW"]["nodes"]
    na_density = by_name["NA"]["edges"] / by_name["NA"]["nodes"]
    assert tw_density > na_density
