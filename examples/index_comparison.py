#!/usr/bin/env python
"""Compare the four object indexes on one dataset (mini Fig. 6/7).

Builds IR, IF, SIF and SIF-P over the SYN dataset, runs the same SK
workload against each, and prints page reads, false hits, CPU time and
index size side by side.

Run with::

    python examples/index_comparison.py [scale]
"""

import sys

from repro import datasets, workloads
from repro.bench.reporting import print_table


def main(scale: float = 0.5) -> None:
    print(f"Building SYN at scale {scale}...")
    db = datasets.build_dataset("SYN", scale=scale)
    print(f"  {db.dataset_statistics()}")

    config = workloads.WorkloadConfig(num_queries=30, num_keywords=2, seed=9)
    queries = workloads.generate_sk_queries(db, config)

    rows = []
    for kind in ("ir", "if", "sif", "sif-p"):
        index = db.build_index(kind)
        report = workloads.run_sk_workload(db, index, queries)
        rows.append(
            {
                "index": kind.upper(),
                "build_s": round(index.build_seconds, 2),
                "size_KiB": index.size_bytes() // 1024,
                "avg_io": report.row()["avg_io"],
                "false_hit_objs": report.row()["avg_false_hit_objects"],
                "cpu_ms": report.row()["avg_time_ms"],
            }
        )
    print_table(rows, f"\nSK workload ({config.num_queries} queries, "
                      f"l={config.num_keywords})")
    print(
        "\nExpected shape (paper Fig. 6/7): IR reads the most pages; IF "
        "pays for false hits;\nSIF/SIF-P prune them via signatures at a "
        "small space premium."
    )


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.5)
