"""Ablation A3 — LRU buffer size sensitivity.

The paper fixes the buffer at 2 % of the network dataset size (§5).
This ablation sweeps the buffer from nothing to generous and shows the
physical-I/O curve that motivates the choice: CCAM's Z-order locality
makes even a small buffer absorb most of the expansion's adjacency
reads, with diminishing returns beyond a few percent.

The sweep also runs at the capacity the database's own rule gives NA
with SIF alone (``max(8, 2 % of network + SIF pages)``, the buffer the
figure benchmarks measure behind), marked ``default_rule``.
"""

from repro.workloads.queries import WorkloadConfig, generate_sk_queries
from repro.workloads.runner import run_sk_workload

BUFFER_PAGES = (0, 8, 32, 128, 512, 2048)
CONFIG = WorkloadConfig(num_queries=30, num_keywords=3, seed=333)


def test_ablation_buffer_size(ctx, show):
    def sweep():
        db = ctx.database("NA")
        index = ctx.index("NA", "sif", file_prefix="bufablation-sif")
        queries = generate_sk_queries(db, CONFIG)
        original = db.disk.buffer.capacity
        rule = db.buffer_capacity(index)
        rows = []
        try:
            for pages in sorted({*BUFFER_PAGES, rule}):
                db.disk.resize_buffer(pages)
                db.disk.clear_buffer()
                report = run_sk_workload(db, index, queries)
                rows.append(
                    {
                        "buffer_pages": pages,
                        "default_rule": pages == rule,
                        "avg_physical_io": round(report.avg_io, 1),
                        "cpu_ms": round(report.avg_wall_seconds * 1e3, 2),
                    }
                )
        finally:
            db.disk.resize_buffer(original)
        return rows

    rows = sweep()
    show(rows, "Ablation A3: physical I/O vs LRU buffer size (NA, SIF)")

    ios = [r["avg_physical_io"] for r in rows]
    # More buffer never hurts, and the first pages buy the most.
    assert all(b <= a + 1e-9 for a, b in zip(ios, ios[1:]))
    assert ios[0] > 1.3 * ios[2], "a small buffer should already pay off"
    # Diminishing returns: the last doubling saves less than the first.
    first_saving = ios[0] - ios[1]
    last_saving = ios[-2] - ios[-1]
    assert first_saving >= last_saving
