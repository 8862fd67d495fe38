"""Microbenchmark — packed bitset signature verification vs set model.

PR 10 replaced ``SignatureFile``'s per-term ``Set[int]`` bitmaps with
packed ``uint64`` rows: the query's AND over its signed terms is
computed once per term set, a single test is one word-index/mask
probe, and ``test_many`` answers a whole frontier of edges with one
vectorised gather.  This bench replays the verification pattern INE
actually generates — many edges probed under one fixed term set — at
SYN scale, against the pre-PR-10 reference (a dict of per-term edge
sets probed edge by edge), and pins the batched path at >= 5x.
Semantics are property-tested in ``tests/index``; the three paths must
also agree bit for bit here.
"""

import time

import numpy as np

QUERIES = 40
TERMS_PER_QUERY = 2


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_micro_signature_bitset_batched_verification(ctx, show):
    def sweep():
        db = ctx.database("SYN")
        index = ctx.index("SYN", "sif")
        sig = index.signatures
        edges = list(range(db.network.num_edges))
        rng = np.random.default_rng(20260808)

        # The pre-PR-10 reference model: one Python set of edge ids per
        # signed term, verified edge by edge with set membership.
        set_model = {
            term: set(sig.edges_of(term)) for term in sig.matrix.keys()
        }
        signed = sorted(set_model)
        queries = [
            tuple(
                signed[int(i)]
                for i in rng.choice(
                    len(signed), size=TERMS_PER_QUERY, replace=False
                )
            )
            for _ in range(QUERIES)
        ]

        def run_set_model():
            out = []
            for terms in queries:
                rows = [set_model[t] for t in terms]
                out.append([all(e in row for row in rows) for e in edges])
            return out

        def run_packed_scalar():
            return [
                [sig.test(e, terms) for e in edges] for terms in queries
            ]

        def run_packed_batched():
            return [sig.test_many(edges, terms) for terms in queries]

        # Same bits from all three paths before any timing claims.
        want = run_set_model()
        assert run_packed_scalar() == want
        assert run_packed_batched() == want

        set_s = min(_timed(run_set_model) for _ in range(3))
        scalar_s = min(_timed(run_packed_scalar) for _ in range(3))
        batched_s = min(_timed(run_packed_batched) for _ in range(3))
        rows = [
            {
                "edges": len(edges),
                "queries": QUERIES,
                "terms_per_query": TERMS_PER_QUERY,
                "signed_terms": sig.num_signed_terms,
                "set_model_ms": round(set_s * 1e3, 3),
                "packed_scalar_ms": round(scalar_s * 1e3, 3),
                "packed_batched_ms": round(batched_s * 1e3, 3),
                "batched_speedup": round(set_s / max(batched_s, 1e-9), 2),
                "signature_bytes": sig.size_bytes(),
            }
        ]
        return rows

    rows = sweep()
    show(rows, "Micro: packed bitset signature verification (SYN)")
    row = rows[0]
    # The acceptance bar: batched packed verification >= 5x over the
    # per-edge set-model loop (it typically lands far higher — one
    # numpy gather vs num_edges Python membership tests per query).
    assert row["batched_speedup"] >= 5.0, row
