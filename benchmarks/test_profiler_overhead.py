"""Sampling-profiler overhead: must stay within the ~5 % budget.

The profiler's cost model: the engine pays two GIL-atomic dict writes
per query (the plan-label scope); everything else — frame walking,
folding, counting — happens on the sampler's own daemon thread between
its ``1/hz`` sleeps.  At the default 67 Hz that thread wakes 67 times
a second regardless of query volume, so per-query overhead *shrinks*
as throughput grows.

Method: interleaved A/B rounds (OFF, ON, OFF, ON, ...) over the same
query batch, comparing the *minimum* round time of each arm — min
discards scheduler noise and GC pauses, interleaving cancels thermal
and cache drift between arms.  The asserted bound is deliberately
looser than the 5 % claim (pure-Python wall times on shared CI jitter
by more than the effect being measured); the printed table records the
measured ratio.
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
    for plan in plans:
        db.engine.execute(plan)
    return time.perf_counter() - t0


def test_profiler_overhead_within_budget(ctx, show):
    db = ctx.database("SYN")
    index = ctx.index("SYN", "sif")
    queries = generate_diversified_queries(
        db, WorkloadConfig(num_queries=30, num_keywords=2, k=4, seed=71)
    )
    # Warm caches/buffers once so neither arm pays cold-start.
    _round_seconds(db, index, queries)

    off_times = []
    on_times = []

    def sweep():
        for _ in range(ROUNDS):
            off_times.append(_round_seconds(db, index, queries))
            profiler = db.enable_profiler()
            try:
                on_times.append(_round_seconds(db, index, queries))
            finally:
                db.disable_profiler()

    sweep()

    baseline = min(off_times)
    profiled = min(on_times)
    ratio = profiled / baseline
    show(
        [{
            "baseline_ms": round(baseline * 1e3, 3),
            "profiled_ms": round(profiled * 1e3, 3),
            "overhead_pct": round((ratio - 1.0) * 100.0, 2),
            "hz": 67,
            "rounds": ROUNDS,
        }],
        "Profiler overhead (interleaved min-of-rounds)",
    )
    # The claim is <=5 %; assert a jitter-tolerant envelope so shared
    # CI machines don't flake the suite while still catching a real
    # regression (e.g. accidental per-query sampling).
    assert ratio <= 1.25, (
        f"profiler overhead {100 * (ratio - 1):.1f}% "
        f"(baseline {baseline * 1e3:.1f} ms, profiled {profiled * 1e3:.1f} ms)"
    )
