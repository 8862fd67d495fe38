"""Microbenchmark — vectorized θ scoring vs the scalar path.

The array greedy evaluates the whole θ matrix with one
``theta_matrix`` call and runs each round as a masked ``argmax``; the
scalar reference (``tests/reference.py``) walks a lazy per-pair cache
in pure Python.  Both produce identical selections (property-tested in
``tests/core``); this bench
pins the *performance* claim on pools of >= 256 candidates, where the
O(n²) θ sweep dominates greedy selection.
"""

import time

import numpy as np

from repro.core.diversify import greedy_diversify
from repro.core.objective import DiversificationObjective
from repro.core.queries import ResultItem
from repro.network.graph import NetworkPosition
from repro.network.objects import SpatioTextualObject
from tests.reference import scalar_greedy

POOL = 320
K = 10


def _make_pool(rng):
    items = []
    for i in range(POOL):
        obj = SpatioTextualObject(
            i, NetworkPosition(int(rng.integers(0, 5000)), 0.0),
            frozenset({"x"}),
        )
        items.append(ResultItem(obj, float(rng.uniform(0.0, 900.0))))
    coords = rng.uniform(0.0, 2000.0, size=POOL)
    pair = np.abs(coords[:, None] - coords[None, :])
    return items, pair


def test_micro_vectorized_objective_beats_scalar(show):
    def sweep():
        rng = np.random.default_rng(20260808)
        items, pair = _make_pool(rng)
        obj = DiversificationObjective(0.7, 1000.0)

        def pd(a, b):
            return float(pair[a.object.object_id, b.object.object_id])

        def builder(pool):
            rows = [it.object.object_id for it in pool]
            return pair[np.ix_(rows, rows)]

        # Warm both paths once (first-touch numpy setup costs), then
        # take the best of three to damp scheduler noise.
        greedy_diversify(items, K, obj, builder)
        scalar_s = min(
            _timed(lambda: scalar_greedy(items, K, obj, pd))
            for _ in range(3)
        )
        array_s = min(
            _timed(lambda: greedy_diversify(items, K, obj, builder))
            for _ in range(3)
        )
        scalar_sel = scalar_greedy(items, K, obj, pd)
        array_sel = greedy_diversify(items, K, obj, builder)
        identical = [it.object.object_id for it in scalar_sel] == [
            it.object.object_id for it in array_sel
        ]
        rows = [
            {
                "pool": POOL,
                "k": K,
                "scalar_ms": round(scalar_s * 1e3, 3),
                "array_ms": round(array_s * 1e3, 3),
                "speedup": round(scalar_s / max(array_s, 1e-9), 2),
                "identical_selection": identical,
            }
        ]
        return rows

    rows = sweep()
    show(rows, "Micro: vectorized vs scalar greedy scoring")
    row = rows[0]
    assert row["identical_selection"]
    # The satellite gate: the vectorized objective must win outright
    # on >= 256-candidate pools (it typically wins by 10-30x).
    assert row["scalar_ms"] > row["array_ms"], row


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
