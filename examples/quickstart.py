#!/usr/bin/env python
"""Quickstart: build a dataset, index it, run both query types.

Run with::

    python examples/quickstart.py
"""

from repro import DiversifiedSKQuery, datasets

def main() -> None:
    # 1. Build a scaled-down rendition of the paper's NA dataset:
    #    a road network plus spatio-textual objects, laid out on a
    #    simulated disk with CCAM clustering and an LRU buffer.
    print("Building the NA dataset (scale 0.25)...")
    db = datasets.build_dataset("NA", scale=0.25)
    print(f"  {db.dataset_statistics()}")

    # 2. Build the paper's signature-based inverted file (SIF-P:
    #    signatures plus partitioned dense edges).
    index = db.build_index("sif-p")
    print(f"  index: {index.describe()} built in {index.build_seconds:.2f}s")

    # 3. Boolean spatial keyword search (Algorithm 3): objects within
    #    network distance delta_max containing ALL query keywords.
    #    The workload generator mimics the paper's setup: positions are
    #    object locations, keywords frequency-weighted from one object
    #    (so the AND constraint is satisfiable).  Pick the first query
    #    with a healthy result set for the demo.
    from repro import workloads

    candidates = workloads.generate_sk_queries(
        db, workloads.WorkloadConfig(num_queries=30, num_keywords=2,
                                     delta_max=2500.0, seed=3)
    )
    query = max(candidates, key=lambda q: len(db.sk_search(index, q)))
    terms = sorted(query.terms)
    result = db.sk_search(index, query)
    print(f"\nSK search for {terms} within 2000:")
    print(f"  {len(result)} objects, "
          f"{result.stats.physical_reads} physical page reads, "
          f"{result.stats.edges_accessed} edges expanded")
    for item in list(result)[:5]:
        print(f"    object {item.object.object_id:>6}  "
              f"distance {item.distance:8.1f}  "
              f"keywords {sorted(item.object.keywords)[:4]}")

    # 4. Diversified SK search (Algorithm 6, COM): k results balancing
    #    closeness to the query (weight λ) against pairwise spread
    #    (weight 1 − λ).
    dquery = DiversifiedSKQuery.create(
        query.position, terms, delta_max=query.delta_max, k=4, lambda_=0.7
    )
    for method in ("seq", "com"):
        res = db.diversified_search(index, dquery, method=method)
        print(f"\nDiversified search via {method.upper()}:")
        print(f"  f(S) = {res.objective_value:.4f}, "
              f"candidates processed: {res.stats.candidates}, "
              f"early termination: {res.stats.expansion_terminated_early}")
        for item in res:
            print(f"    object {item.object.object_id:>6}  "
                  f"distance {item.distance:8.1f}")


if __name__ == "__main__":
    main()
