"""Per-keyword edge signatures (paper §3.1), one Python int per row.

``I(e, t) = 1`` iff at least one object with keyword ``t`` lies on edge
``e``.  An edge can be skipped — zero I/O — when any query keyword has
``I(e, t) = 0``, exploiting the AND semantics of the boolean query.

Following the paper:

* no signature is built for a keyword whose inverted file fits into one
  data page (such keywords cannot prune meaningfully and would bloat the
  signature file);
* signature size is accounted by compacting each keyword's bitmap
  against a KD-tree over edge centres, collapsing subtrees whose leaves
  share the same bit.

Signatures are memory-resident at query time ("can be easily fit into
the main memory"), so the test itself costs no I/O.

Storage layout: one arbitrary-precision int per signed keyword, bit
``s`` set iff slot ``s`` (an edge id for SIF, a virtual-edge slot for
SIF-P) holds the keyword.  A query's loader ANDs its terms' rows into
one int and tests each edge with one shift.  Ints are immutable, so a
row a loader holds never changes under it and no lock is needed.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set,
)

import numpy as np

from ..network.objects import ObjectStore
from ..spatial.kdtree import KDTreePartition
from .inverted_file import InvertedFileIndex

__all__ = ["PackedBitMatrix", "SignatureFile", "pack_slots"]


def pack_slots(slots: Iterable[int]) -> int:
    """One int with bit ``s`` set for every ``s`` in ``slots``."""
    idx = np.fromiter(slots, dtype=np.int64)
    if not idx.size:
        return 0
    bits = np.zeros(int(idx.max()) + 1, dtype=bool)
    bits[idx] = True
    return int.from_bytes(
        np.packbits(bits, bitorder="little").tobytes(), "little"
    )


class PackedBitMatrix:
    """Bitset rows over a dense slot space, one int per key.

    The matrix is the storage engine shared by :class:`SignatureFile`
    (slots = edge ids) and SIF-P (slots = global virtual-edge slots).
    Key-existence policy — whether an absent key passes conservatively
    (SIF) or fails everywhere (SIF-P) — is the *caller's* concern: the
    caller selects which keys participate in :meth:`combined` and the
    matrix only ANDs the selected rows.
    """

    def __init__(self, num_slots: int) -> None:
        self._num_slots = max(0, int(num_slots))
        self._rows: Dict[str, int] = {}

    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        return self._num_slots

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    @property
    def num_words(self) -> int:
        """64-bit words per row — ``ceil(num_slots / 64)`` (at least one)."""
        return max(1, (self._num_slots + 63) // 64)

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    def keys(self) -> Iterable[str]:
        return self._rows.keys()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def ensure_slots(self, num_slots: int) -> None:
        """Grow the slot space (never shrinks)."""
        self._num_slots = max(self._num_slots, int(num_slots))

    def set(self, key: str, slot: int) -> None:
        """Set bit ``slot`` in ``key``'s row, allocating it if absent."""
        self.ensure_slots(slot + 1)
        self._rows[key] = self._rows.get(key, 0) | (1 << slot)

    def clear(self, key: str, slot: int) -> None:
        """Clear bit ``slot`` in ``key``'s row; no-op for absent keys.

        An emptied row is kept: all-zero means "this key occurs in no
        slot", which prunes every probe — dropping the row would instead
        make the key's absence read as a pass for callers that treat
        missing keys conservatively.
        """
        row = self._rows.get(key)
        if row is not None and slot >= 0:
            self._rows[key] = row & ~(1 << slot)

    def bulk_set(self, key: str, slots: Iterable[int]) -> None:
        """Set many bits in one row (build-time path, one packing)."""
        packed = pack_slots(slots)
        self.ensure_slots(packed.bit_length())
        self._rows[key] = self._rows.get(key, 0) | packed

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def combined(self, keys: Sequence[str]) -> Optional[int]:
        """AND of the given keys' rows; ``None`` means "always pass".

        Every key must be present (callers apply their own policy for
        absent keys first).
        """
        if not keys:
            return None
        return reduce(and_, map(self._rows.__getitem__, keys))

    @staticmethod
    def probe(combined: Optional[int], slot: int) -> bool:
        """Bit ``slot`` of a combined row (``None`` passes everything)."""
        if combined is None:
            return True
        return slot >= 0 and bool((combined >> slot) & 1)

    def slots_of(self, key: str) -> FrozenSet[int]:
        """The set bits of one key's row (size accounting)."""
        row = self._rows.get(key, 0)
        packed = np.frombuffer(
            row.to_bytes((row.bit_length() + 7) // 8, "little"),
            dtype=np.uint8,
        )
        bits = np.unpackbits(packed, bitorder="little")
        return frozenset(np.flatnonzero(bits).tolist())

    def size_bytes(self) -> int:
        """Packed size: rows × words × 8 bytes."""
        return self.num_rows * self.num_words * 8


class SignatureFile:
    """Edge signatures for every (sufficiently frequent) keyword."""

    def __init__(
        self,
        store: ObjectStore,
        inverted: Optional[InvertedFileIndex] = None,
        min_postings_pages: int = 1,
        kd_partition: Optional[KDTreePartition] = None,
        term_edges: Optional[Mapping[str, Sequence[int]]] = None,
    ) -> None:
        """Build signatures from the object store.

        Parameters
        ----------
        store:
            Object store the signatures summarise.
        inverted:
            The underlying inverted file; used to apply the "skip
            keywords whose inverted file fits in one page" rule.  When
            ``None`` every keyword gets a signature.
        min_postings_pages:
            Minimum number of postings pages for a keyword to receive a
            signature.  The paper skips keywords whose inverted file
            fits in one page (``2``); that threshold is scale-dependent
            — at this reproduction's ~1/100 data scale a mid-frequency
            keyword rarely exceeds one 4 KiB page, so the default signs
            every keyword (``1``) and the paper rule is opt-in.
        kd_partition:
            KD-tree over edge centres used for size accounting; when
            ``None`` sizes fall back to packed-bitmap accounting.
        term_edges:
            Each term's edge ids as the inverted file's build staged
            them (``InvertedFileIndex(term_edges=...)``); when ``None``
            the store is walked for them here.
        """
        self._store = store
        self._kd = kd_partition
        self._matrix = PackedBitMatrix(store.network.num_edges)
        if term_edges is None:
            term_edges = {}
            for edge_id in store.edges_with_objects():
                objects = store.objects_on_edge(edge_id)
                for term in set().union(*[o.keywords for o in objects]):
                    term_edges.setdefault(term, []).append(edge_id)
        skipped: Set[str] = set()
        for term in sorted(term_edges):
            if (
                inverted is not None
                and inverted.postings_pages_of(term) < min_postings_pages
            ):
                skipped.add(term)
                continue
            self._matrix.bulk_set(term, term_edges[term])
        self._skipped = frozenset(skipped)

    # ------------------------------------------------------------------
    @property
    def num_signed_terms(self) -> int:
        return self._matrix.num_rows

    @property
    def matrix(self) -> PackedBitMatrix:
        """The packed row storage."""
        return self._matrix

    def combined_row(self, terms: Iterable[str]) -> Optional[int]:
        """AND of the signed query terms' rows, ``None`` = always pass.

        Unsigned (skipped or never-seen) terms are excluded — they
        conservatively pass, so they cannot tighten the AND.
        """
        matrix = self._matrix
        signed = [t for t in terms if t in matrix]
        return matrix.combined(signed)

    def test(self, edge_id: int, terms: Iterable[str]) -> bool:
        """AND-semantics signature test: ``False`` means *prune the edge*.

        The per-slot reference: the query path shifts the combined
        row itself (the expansion, inline, for SIF and SIF-G; SIF-P's
        loader), and the tests compare that shift against this.
        """
        return self._matrix.probe(self.combined_row(terms), edge_id)

    def test_many(
        self, edge_ids: Sequence[int], terms: Iterable[str]
    ) -> List[bool]:
        """:meth:`test` per edge over one AND.

        No caller in ``src/``: ``perf/probes.PROBES`` names it and a
        ``perf/`` test pins that list, so it goes with that probe row
        (ROADMAP 1b).
        """
        row = self.combined_row(terms)
        probe = self._matrix.probe
        return [probe(row, edge_id) for edge_id in edge_ids]

    def set_bit(self, edge_id: int, term: str) -> None:
        """Set ``I(e, t) = 1`` (dynamic maintenance).

        An unsigned keyword stays unsigned: its bit already reports
        ``True`` conservatively, so no update is needed.
        """
        if term in self._skipped:
            return
        self._matrix.set(term, edge_id)

    def clear_bit(self, edge_id: int, term: str) -> None:
        """Set ``I(e, t) = 0`` after the last ``t``-object left ``e``.

        The caller must verify no object with ``t`` remains on the edge
        — a prematurely cleared bit causes false *misses*, which break
        correctness (a stale 1-bit only costs a wasted probe).  Unsigned
        keywords stay unsigned (they conservatively report ``True``).
        An emptied row is kept: it means "this term occurs on no edge",
        which prunes every probe — dropping it would instead make the
        term report True everywhere.
        """
        if term in self._skipped:
            return
        if term in self._matrix:
            self._matrix.clear(term, edge_id)

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Compacted signature size across all signed keywords."""
        if self._kd is not None:
            return sum(
                self._kd.compact_size_bytes(self._matrix.slots_of(term))
                for term in self._matrix.keys()
            )
        # Raw fallback: one ceil(num_edges / 64)-word row per signed
        # keyword.
        return self._matrix.size_bytes()
