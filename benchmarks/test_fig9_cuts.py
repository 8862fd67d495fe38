"""Fig. 9 — space cost-effectiveness of SIF-P on SF.

False hits as the number of maximal cuts grows 2 → 32, against the
group-based alternative SIF-G whose extra term-pair lists cost several
times the space of SIF-P's signatures.  Expected shape: SIF-P's false
hits fall as cuts (index space) grow, and SIF-P is more space
cost-effective than SIF-G.

As in the Fig. 10 benchmark, a dense-edge SF variant (~15 objects per
edge, the paper's density regime) is used so that the cut budget is the
binding constraint.
"""

from repro.workloads.queries import WorkloadConfig, generate_sk_queries
from repro.workloads.runner import run_sk_workload

CUTS = (2, 4, 8, 16, 32)
CONFIG = WorkloadConfig(
    num_queries=60, num_keywords=3, keyword_source="frequency",
    delta_max=900.0, seed=909,
)
DENSE = dict(num_nodes=800, num_objects=22000)


def test_fig9_false_hits_vs_cuts(ctx, show):
    def sweep():
        db = ctx.database("SF", **DENSE)
        queries = generate_sk_queries(db, CONFIG)
        rows = []
        for cuts in CUTS:
            index = ctx.index("SF", "sif-p", db_overrides=DENSE, max_cuts=cuts,
                              file_prefix=f"fig9-sifp{cuts}")
            report = run_sk_workload(db, index, queries, label=f"cuts={cuts}")
            rows.append(
                {
                    "max_cuts": cuts,
                    "SIF-P_false_hit_objs": round(report.avg_false_hit_objects, 2),
                    "sig_bytes": index.signature_size_bytes(),
                }
            )
        # Baselines: plain SIF and the space-hungry SIF-G.
        sif = ctx.index("SF", "sif", db_overrides=DENSE, file_prefix="fig9-sif")
        sif_rep = run_sk_workload(db, sif, queries, label="SIF")
        sifg = ctx.index("SF", "sif-g", db_overrides=DENSE, top_terms=25,
                         file_prefix="fig9-sifg")
        sifg_rep = run_sk_workload(db, sifg, queries, label="SIF-G")
        extras = {
            "SIF_false_hit_objs": round(sif_rep.avg_false_hit_objects, 2),
            "SIFG_false_hit_objs": round(sifg_rep.avg_false_hit_objects, 2),
            "SIFG_extra_bytes": sifg.group_size_bytes(),
        }
        return rows, extras

    rows, extras = sweep()
    show(rows, "Fig 9: SIF-P false-hit objects vs max cuts (dense SF)")
    show([extras], "Fig 9 baselines: SIF and SIF-G")

    # More cuts (more signature space) -> fewer false hits.
    assert rows[-1]["SIF-P_false_hit_objs"] < rows[0]["SIF-P_false_hit_objs"]
    assert rows[-1]["sig_bytes"] > rows[0]["sig_bytes"]
    # Every SIF-P configuration beats plain SIF on false hits.
    for row in rows:
        assert row["SIF-P_false_hit_objs"] < extras["SIF_false_hit_objs"]
    # Space cost-effectiveness: SIF-G's extra lists dwarf SIF-P's
    # signatures yet reduce false hits less (the paper's Fig. 9 point).
    assert extras["SIFG_extra_bytes"] > 3 * rows[-1]["sig_bytes"]
    assert rows[-1]["SIF-P_false_hit_objs"] <= extras["SIFG_false_hit_objs"]
