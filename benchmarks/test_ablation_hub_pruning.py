"""Ablation — path-cover pruning of hub labels.

PR 10 prunes label entries whose upward distance is not the true
distance (they can never win a join).  This ablation builds the hub
oracle twice over one shared CH — raw search spaces vs pruned — and
records the size reduction and the query-side effect on the batched
label-join kernel, with answers asserted bit-identical.
"""

import time

import numpy as np

from repro.network.hub_labels import HubLabelBackend

POOL = 96
MATRIX_ROUNDS = 5


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_ablation_hub_label_pruning(ctx, show):
    def sweep():
        db = ctx.database("SYN")
        network = db.network
        pruned = HubLabelBackend(network)
        raw = HubLabelBackend(network, ch=pruned.ch, prune_labels=False)

        rng = np.random.default_rng(20260808)
        edges = list(network.edges())
        from repro.network.graph import NetworkPosition

        positions = []
        for _ in range(POOL):
            edge = edges[int(rng.integers(0, len(edges)))]
            positions.append(
                NetworkPosition(
                    edge.edge_id, float(rng.uniform(0, edge.weight))
                )
            )

        # Identical answers first (fresh position-label caches each).
        want = raw.position_matrix_array(positions)
        got = pruned.position_matrix_array(positions)
        identical = bool(np.array_equal(got, want))

        def run_matrix(oracle):
            oracle._label_cache.clear()
            for _ in range(MATRIX_ROUNDS):
                oracle.position_matrix_array(positions)

        raw_s = min(_timed(lambda: run_matrix(raw)) for _ in range(3))
        pruned_s = min(
            _timed(lambda: run_matrix(pruned)) for _ in range(3)
        )
        stats = pruned.stats()
        rows = [
            {
                "nodes": stats["labels"],
                "entries_raw": raw.label_entries,
                "entries_pruned": pruned.label_entries,
                "pruned_entries": stats["pruned_entries"],
                "pruned_pct": round(
                    100.0
                    * stats["pruned_entries"]
                    / max(1, stats["label_entries_unpruned"]),
                    1,
                ),
                "avg_label_raw": round(raw.avg_label_size, 2),
                "avg_label_pruned": round(pruned.avg_label_size, 2),
                "matrix_raw_ms": round(raw_s * 1e3, 3),
                "matrix_pruned_ms": round(pruned_s * 1e3, 3),
                "matrix_speedup": round(raw_s / max(pruned_s, 1e-9), 2),
                "identical_matrix": identical,
            }
        ]
        return rows

    rows = sweep()
    show(rows, "Ablation: hub label path-cover pruning (SYN)")
    row = rows[0]
    # Exactness is the contract; the size drop is the point.
    assert row["identical_matrix"]
    assert row["entries_pruned"] < row["entries_raw"], row
    assert row["avg_label_pruned"] < row["avg_label_raw"], row
