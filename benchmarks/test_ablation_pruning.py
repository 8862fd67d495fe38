"""Ablation A2 — COM's diversity pruning on vs off (§4.3).

With the pruning disabled COM still processes the stream incrementally
but must exhaust it, like SEQ.  The ablation isolates the benefit of
the θ-bound pruning: same answers, fewer candidates and less I/O.
"""

from repro.workloads.queries import WorkloadConfig, generate_diversified_queries


CONFIG = WorkloadConfig(num_queries=10, num_keywords=3, k=6, lambda_=0.9,
                        delta_max=2500.0, seed=4242)


def test_ablation_diversity_pruning(ctx, show):
    def sweep():
        db = ctx.database("NA")
        index = ctx.index("NA", "sif")
        queries = generate_diversified_queries(db, CONFIG)
        rows = []
        agg = {"on_cands": 0, "off_cands": 0, "on_io": 0, "off_io": 0,
               "value_mismatches": 0, "early_terminations": 0}
        for i, q in enumerate(queries):
            on = db.diversified_search(index, q, method="com",
                                       enable_pruning=True)
            off = db.diversified_search(index, q, method="com",
                                        enable_pruning=False)
            agg["on_cands"] += on.stats.candidates
            agg["off_cands"] += off.stats.candidates
            agg["on_io"] += on.stats.physical_reads
            agg["off_io"] += off.stats.physical_reads
            agg["early_terminations"] += on.stats.expansion_terminated_early
            if abs(on.objective_value - off.objective_value) > 1e-9:
                agg["value_mismatches"] += 1
            rows.append(
                {
                    "query": i,
                    "pruned_cands": on.stats.candidates,
                    "full_cands": off.stats.candidates,
                    "early_stop": on.stats.expansion_terminated_early,
                    "f_on": round(on.objective_value, 4),
                    "f_off": round(off.objective_value, 4),
                }
            )
        return rows, agg

    rows, agg = sweep()
    show(rows, "Ablation A2: COM with and without diversity pruning (NA)")

    # Pruning never changes the answer quality.
    assert agg["value_mismatches"] == 0
    # It does reduce work: fewer candidates processed overall, and the
    # expansion terminates early for at least some queries.
    assert agg["on_cands"] <= agg["off_cands"]
    assert agg["early_terminations"] >= 1
