"""Ablation A1 — exact DP vs greedy edge partitioning (§3.3, §5).

The paper reports the greedy approach "up to two orders of magnitude
faster than the dynamic programming based approach while they achieve
similar performance in terms of I/O costs reduced"; the DP costs
``O(c² m³)`` against the greedy's ``O(c·m·(s_t + |Q|·q_t))``.  This
ablation sweeps the edge size m and checks (a) the DP/greedy time ratio
grows superlinearly with m, (b) the greedy's achieved false-hit cost
stays close to the DP optimum, and (c) the DP is never beaten.
"""

import time

import numpy as np
from repro.index.partition import dp_partition, greedy_partition, partition_cost
from repro.index.query_log import frequency_edge_log
from repro.text.zipf import ZipfSampler


def _synthetic_edge(m, rng, vocab_size=40):
    sampler = ZipfSampler(
        [f"t{i}" for i in range(vocab_size)], z=1.0, seed=int(rng.integers(1e9))
    )
    return [frozenset(sampler.sample_distinct(int(rng.integers(2, 6))))
            for _ in range(m)]


def test_ablation_dp_vs_greedy(ctx, show):
    def sweep():
        rng = np.random.default_rng(42)
        rows = []
        for m in (8, 16, 24, 32):
            dp_s = greedy_s = dp_cost = greedy_cost = 0.0
            for _ in range(3):
                kws = _synthetic_edge(m, rng)
                log = frequency_edge_log(kws, num_queries=32, num_terms=3,
                                         rng=rng)
                t0 = time.perf_counter()
                dp_cuts, _ = dp_partition(kws, 5, log)
                dp_s += time.perf_counter() - t0
                t0 = time.perf_counter()
                greedy_cuts, _ = greedy_partition(kws, 5, log)
                greedy_s += time.perf_counter() - t0
                dp_cost += partition_cost(kws, dp_cuts, log)
                greedy_cost += partition_cost(kws, greedy_cuts, log)
            rows.append(
                {
                    "m": m,
                    "dp_ms": round(dp_s * 1e3, 1),
                    "greedy_ms": round(greedy_s * 1e3, 1),
                    "speed_ratio": round(dp_s / max(greedy_s, 1e-9), 1),
                    "dp_cost": round(dp_cost, 2),
                    "greedy_cost": round(greedy_cost, 2),
                }
            )
        return rows

    rows = sweep()
    show(rows, "Ablation A1: DP vs greedy partitioning, growing edge size")

    # The DP/greedy gap explodes with edge size (the paper's motivation
    # for shipping the greedy).
    assert rows[-1]["speed_ratio"] > 4 * max(rows[0]["speed_ratio"], 1.0)
    assert rows[-1]["speed_ratio"] > 5
    for row in rows:
        # DP is optimal: never worse than greedy...
        assert row["dp_cost"] <= row["greedy_cost"] + 1e-9, row
        # ...and the greedy stays close (paper: "similar performance").
        assert row["greedy_cost"] <= row["dp_cost"] * 2.0 + 1.0, row
