"""Flight-recorder overhead: capture must stay within the ~3 % budget.

The recorder's per-query cost: one digest (sha256 over k short
strings), one dict build from already-computed stats, and one lock
hold to append into the ring.  No I/O on the hot path when no journal
file is attached; with ``--record FILE`` the JSON-lines write is the
extra cost measured here too.

Method: interleaved A/B rounds (OFF, ON, OFF, ON, ...) over the same
query batch, comparing min-of-rounds per arm.  The asserted bound is
looser than the 3 % claim (CI wall-clock jitter exceeds the effect);
the table records the measured ratio.
"""

from __future__ import annotations

from repro.workloads.queries import WorkloadConfig, generate_diversified_queries


ROUNDS = 5


def _round_seconds(db, index, queries, method="seq"):
    import time

    from repro.engine.plan import plan_diversified

    plans = [
        plan_diversified(db, index, q, method=method) for q in queries
    ]
    t0 = time.perf_counter()
    for i, plan in enumerate(plans):
        db.engine.execute(plan, sequence=i)
    return time.perf_counter() - t0


def test_recorder_overhead_within_budget(ctx, show, tmp_path):
    db = ctx.database("SYN")
    index = ctx.index("SYN", "sif")
    queries = generate_diversified_queries(
        db, WorkloadConfig(num_queries=30, num_keywords=2, k=4, seed=71)
    )
    # Warm caches/buffers once so neither arm pays cold-start.
    _round_seconds(db, index, queries)

    off_times = []
    ring_times = []
    journal_times = []

    def sweep():
        for round_no in range(ROUNDS):
            off_times.append(_round_seconds(db, index, queries))
            db.enable_flight_recorder()
            try:
                ring_times.append(_round_seconds(db, index, queries))
            finally:
                db.disable_flight_recorder()
            db.enable_flight_recorder(
                path=tmp_path / f"flight-{round_no}.jsonl"
            )
            try:
                journal_times.append(_round_seconds(db, index, queries))
            finally:
                db.disable_flight_recorder()

    sweep()

    baseline = min(off_times)
    ring = min(ring_times)
    journal = min(journal_times)
    ratio = ring / baseline
    show(
        [{
            "baseline_ms": round(baseline * 1e3, 3),
            "recording_ms": round(ring * 1e3, 3),
            "journaling_ms": round(journal * 1e3, 3),
            "overhead_pct": round((ratio - 1.0) * 100.0, 2),
            "journal_overhead_pct": round(
                (journal / baseline - 1.0) * 100.0, 2
            ),
            "rounds": ROUNDS,
        }],
        "Flight-recorder overhead (interleaved min-of-rounds)",
    )
    # The claim is <=3 % for in-memory capture; assert a
    # jitter-tolerant envelope so shared CI machines don't flake while
    # still catching a real regression (e.g. digesting twice, or
    # journal writes leaking into the no-path configuration).
    assert ratio <= 1.20, (
        f"recorder overhead {100 * (ratio - 1):.1f}% "
        f"(baseline {baseline * 1e3:.1f} ms, recording {ring * 1e3:.1f} ms)"
    )
