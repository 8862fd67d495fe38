"""Property tests: int-row bitset signatures vs a set-model reference.

The int rows in :class:`PackedBitMatrix` (and the :class:`SignatureFile`
built on them) must be observationally identical to the obvious
reference model — a ``Dict[str, Set[int]]`` with the conservative-True
rule for unsigned terms.  Hypothesis drives random interleavings of
builds, dynamic set/clear churn and probes (the matrix's own, the shift
a bound loader tests an edge with, and SIF-P's masked window),
including the edge cases a fixed fixture misses: rows emptied by clears
(kept, prune everything), terms skipped by the rare-keyword rule (never
tighten the AND), and slot spaces that straddle 64-bit word boundaries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.inverted_file import InvertedFileIndex
from repro.index.signature import PackedBitMatrix, SignatureFile
from repro.network.graph import NetworkPosition, RoadNetwork
from repro.network.objects import ObjectStore
from repro.storage.pagefile import DiskManager
from tests.reference import signature_edges

TERMS = ["a", "b", "c", "d"]

# Slot universes deliberately straddle the 64-bit word boundary.
slot_st = st.integers(0, 130)
term_st = st.sampled_from(TERMS)

op_st = st.one_of(
    st.tuples(st.just("set"), term_st, slot_st),
    st.tuples(st.just("clear"), term_st, slot_st),
    st.tuples(st.just("bulk"), term_st, st.lists(slot_st, max_size=8)),
)


class SetModel:
    """The reference: plain per-term slot sets, no packing."""

    def __init__(self):
        self.rows = {}

    def apply(self, op):
        kind = op[0]
        if kind == "set":
            self.rows.setdefault(op[1], set()).add(op[2])
        elif kind == "clear":
            if op[1] in self.rows:
                self.rows[op[1]].discard(op[2])
        elif kind == "bulk":
            self.rows.setdefault(op[1], set()).update(op[2])

    def combined_slots(self, keys):
        """Slots passing the AND of ``keys`` (all present by contract)."""
        out = None
        for k in keys:
            row = self.rows[k]
            out = set(row) if out is None else out & row
        return out


def apply_to_matrix(matrix, op):
    kind = op[0]
    if kind == "set":
        matrix.set(op[1], op[2])
    elif kind == "clear":
        matrix.clear(op[1], op[2])
    elif kind == "bulk":
        matrix.bulk_set(op[1], op[2])


@settings(max_examples=120, deadline=None)
@given(st.lists(op_st, max_size=30), st.lists(term_st, max_size=3))
def test_matrix_matches_set_model(ops, query_terms):
    matrix = PackedBitMatrix(8)
    model = SetModel()
    for op in ops:
        apply_to_matrix(matrix, op)
        model.apply(op)
    # Per-row contents.
    for term in TERMS:
        if term in model.rows:
            assert term in matrix
            assert matrix.slots_of(term) == frozenset(model.rows[term])
        else:
            assert term not in matrix
            assert matrix.slots_of(term) == frozenset()
    # Combined AND probes (only over present keys, per the contract).
    present = [t for t in query_terms if t in model.rows]
    bits = matrix.combined(present)
    assert (bits is None) == (not present)
    expected = model.combined_slots(present)
    # Slots past the last word included: they fail closed in both forms.
    past_end = 64 * matrix.num_words + 70
    for slot in range(past_end):
        want = (
            True if expected is None
            else slot < matrix.num_slots and slot in expected
        )
        assert matrix.probe(bits, slot) == want
        # A bound loader's per-edge test: one shift of the row.
        assert (bits is None or bool((bits >> slot) & 1)) == want
    if bits is None:
        return
    # SIF-P's masked window over an edge's run of virtual-edge slots,
    # at every base and straddling the end of the row.
    for base in range(0, past_end, 7):
        for count in (1, 4, 66):
            window = (bits >> base) & ((1 << count) - 1)
            assert [v for v in range(count) if (window >> v) & 1] == [
                v for v in range(count) if matrix.probe(bits, base + v)
            ]


@settings(max_examples=60, deadline=None)
@given(st.lists(op_st, max_size=20))
def test_matrix_size_reflects_packed_rows(ops):
    matrix = PackedBitMatrix(8)
    for op in ops:
        apply_to_matrix(matrix, op)
    words = max(1, (matrix.num_slots + 63) // 64)
    assert matrix.num_words == words
    assert matrix.size_bytes() == matrix.num_rows * words * 8


# ----------------------------------------------------------------------
# SignatureFile semantics on a live store, with dynamic churn
# ----------------------------------------------------------------------

def _line_store(num_edges=6):
    network = RoadNetwork()
    for i in range(num_edges + 1):
        network.add_node(i, i * 100.0, 0.0)
    for i in range(num_edges):
        network.add_edge(i, i + 1)
    store = ObjectStore(network)
    return network, store


placement_st = st.lists(
    st.tuples(st.integers(0, 5), st.sets(term_st, min_size=1, max_size=3)),
    min_size=1,
    max_size=12,
)

dyn_op_st = st.lists(
    st.tuples(
        st.sampled_from(["set_bit", "clear_bit"]),
        st.integers(0, 5),
        term_st,
    ),
    max_size=15,
)


@settings(max_examples=60, deadline=None)
@given(placement_st, dyn_op_st, st.sets(term_st, max_size=3))
def test_signature_file_matches_reference(placements, dyn_ops, query):
    _network, store = _line_store()
    for edge_id, terms in placements:
        store.add(NetworkPosition(edge_id, 1.0), terms)
    store.freeze()
    sig = SignatureFile(store)

    # Reference: term -> set of edges, built then churned identically.
    ref = {}
    for edge_id, terms in placements:
        for t in terms:
            ref.setdefault(t, set()).add(edge_id)
    for kind, edge_id, term in dyn_ops:
        if kind == "set_bit":
            sig.set_bit(edge_id, term)
            ref.setdefault(term, set()).add(edge_id)
        else:
            sig.clear_bit(edge_id, term)
            if term in ref:
                ref[term].discard(edge_id)

    def ref_test(edge_id, terms):
        # Unsigned terms pass conservatively; signed must contain edge.
        return all(
            edge_id in ref[t] for t in terms if sig.combined_row([t]) is not None
        )

    edges = list(range(store.network.num_edges))
    expected = [ref_test(e, query) for e in edges]
    assert [sig.test(e, query) for e in edges] == expected
    # Out-of-range edges fail closed unless nothing is signed.
    beyond = [-1] + edges + [len(edges), 200]
    assert sig.test_many(beyond, query) == [sig.test(e, query) for e in beyond]
    for t in TERMS:
        if sig.combined_row([t]) is not None:
            assert signature_edges(sig, t) == frozenset(ref.get(t, set()))


@settings(max_examples=40, deadline=None)
@given(dyn_op_st, st.sets(term_st, min_size=1, max_size=3))
def test_skipped_terms_never_prune_even_after_churn(dyn_ops, query):
    """The rare-keyword rule survives dynamic maintenance untouched."""
    _network, store = _line_store()
    store.add(NetworkPosition(0, 1.0), set(TERMS))
    store.freeze()
    disk = DiskManager(buffer_pages=16)
    inv = InvertedFileIndex(store, disk, file_prefix="bitprop")
    sig = SignatureFile(store, inverted=inv, min_postings_pages=2)
    assert sig.num_signed_terms == 0
    for kind, edge_id, term in dyn_ops:
        getattr(sig, kind)(edge_id, term)
    # Skipped terms ignore set/clear entirely: every probe still passes.
    edges = list(range(store.network.num_edges))
    assert all(sig.test(e, query) for e in edges)


def test_emptied_row_prunes_everything():
    """Clearing a signed term's last bit must prune, not pass-open."""
    _network, store = _line_store()
    store.add(NetworkPosition(2, 1.0), {"a"})
    store.freeze()
    sig = SignatureFile(store)
    assert sig.test(2, {"a"}) is True
    sig.clear_bit(2, "a")
    assert sig.combined_row(["a"]) == 0  # the row survives, emptied
    assert signature_edges(sig, "a") == frozenset()
    for e in range(store.network.num_edges):
        assert sig.test(e, {"a"}) is False


def test_probe_out_of_range_fails_closed():
    matrix = PackedBitMatrix(4)
    matrix.set("a", 1)
    combined = matrix.combined(["a"])
    assert matrix.probe(combined, 1) is True
    assert matrix.probe(combined, -1) is False
    assert matrix.probe(combined, 99) is False


def test_combined_sees_every_mutation():
    """A fresh AND sees the clear; a row already handed out (a bound
    loader's) is an int and keeps the bits it was bound with."""
    matrix = PackedBitMatrix(4)
    matrix.set("a", 0)
    combined = matrix.combined(["a"])
    assert matrix.probe(combined, 0) is True
    matrix.clear("a", 0)
    fresh = matrix.combined(["a"])
    assert matrix.probe(fresh, 0) is False
    assert matrix.probe(combined, 0) is True
