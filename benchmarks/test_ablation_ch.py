"""Ablation A5 — Contraction-Hierarchies distance backend.

The paper calls pairwise ``δ(o_i, o_j)`` evaluation "cost expensive"
(§4.1); the CH oracle answers the same exact distances by settling tens
of nodes instead of thousands, and serves SEQ's candidate×candidate
matrix through one bucket-based many-to-many pass.  This ablation runs
the same diversified workload on the standard synthetic dataset under
both backends and records the pairwise-evaluation speedup (answers must
be identical — CH is an oracle, not an approximation).  The default
``csgraph`` backend (the same Dijkstras in C, in memory, nothing built)
rides along as a third column.
"""

from repro.workloads.queries import WorkloadConfig, generate_diversified_queries

CONFIG = WorkloadConfig(num_queries=10, num_keywords=2, k=6, lambda_=0.7,
                        seed=4455)


def test_ablation_ch_backend(ctx, show):
    def sweep():
        db = ctx.database("SYN")
        index = ctx.index("SYN", "sif")
        queries = generate_diversified_queries(db, CONFIG)

        def run(backend):
            db.use_distance_backend(backend)
            out = []
            for q in queries:
                r = db.diversified_search(index, q, method="seq")
                out.append(r)
            return out

        try:
            plain = run("dijkstra")
            in_c = run("csgraph")
            oracle = db.ch_oracle()  # built before the timed CH run
            boosted = run("ch")
        finally:
            db.use_distance_backend("dijkstra")

        rows = []
        agg = {"dijkstra_s": 0.0, "csgraph_s": 0.0, "ch_s": 0.0,
               "mismatches": 0}
        for i, (p, c, b) in enumerate(zip(plain, in_c, boosted)):
            dj = p.stats.stage_seconds.get("pairwise_dijkstra", 0.0)
            cs = c.stats.stage_seconds.get("pairwise_dijkstra", 0.0)
            ch = b.stats.stage_seconds.get("pairwise_dijkstra", 0.0)
            agg["dijkstra_s"] += dj
            agg["csgraph_s"] += cs
            agg["ch_s"] += ch
            equal = (
                p.object_ids() == c.object_ids() == b.object_ids()
                and abs(p.objective_value - b.objective_value) < 1e-9
                and p.objective_value == c.objective_value
            )
            if not equal:
                agg["mismatches"] += 1
            rows.append(
                {
                    "query": i,
                    "candidates": p.stats.candidates,
                    "dijkstra_pairwise_ms": round(dj * 1e3, 3),
                    "csgraph_pairwise_ms": round(cs * 1e3, 3),
                    "ch_pairwise_ms": round(ch * 1e3, 3),
                    "speedup": round(dj / max(ch, 1e-9), 2),
                    "ch_settled_nodes": b.stats.backend_settled_nodes,
                    "f_equal": equal,
                }
            )
        build_rows = [
            {
                "nodes": oracle.num_nodes,
                "shortcuts_added": oracle.shortcuts_added,
                "upward_edges": oracle.upward_edges,
                "build_ms": round(oracle.preprocess_seconds * 1e3, 3),
            }
        ]
        return rows, build_rows, agg

    rows, build_rows, agg = sweep()
    show(rows, "Ablation A5: CH vs Dijkstra pairwise distances (SYN)")
    show(build_rows, "Ablation A5: CH oracle construction (SYN)")

    # CH is exact: every query returns the identical answer.
    assert agg["mismatches"] == 0
    # The acceptance bar: >= 2x faster pairwise-distance evaluation
    # across the workload (per-query ratios are noisier than the total).
    assert agg["dijkstra_s"] >= 2.0 * agg["ch_s"], agg
