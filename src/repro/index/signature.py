"""Per-keyword edge signatures (paper §3.1), packed as bitset rows.

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

Storage layout: one packed ``uint64`` bitset row per signed keyword,
``ceil(num_slots / 64)`` words wide, over a dense slot space (edge ids
for SIF, virtual-edge slots for SIF-P).  The AND over a query's terms
is computed once per distinct term set and cached until the next
``set``/``clear`` bumps the version — the one cache on this path.  A
query's loader turns that row into a Python int once
(:meth:`PackedBitMatrix.to_bigint`) and tests each edge with one shift.
"""

from __future__ import annotations

import threading
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

import numpy as np

from ..network.objects import ObjectStore
from ..spatial.kdtree import KDTreePartition
from .inverted_file import InvertedFileIndex

__all__ = ["PackedBitMatrix", "SignatureFile"]

#: Combined-row cache entries kept before the cache is dropped.  Query
#: workloads reuse a handful of term sets; dynamic churn invalidates by
#: version, so the cap only guards against adversarial term diversity.
_COMBINED_CACHE_CAP = 512


class PackedBitMatrix:
    """Packed bitset rows over a dense slot space, one row per key.

    The matrix is the storage engine shared by :class:`SignatureFile`
    (slots = edge ids) and SIF-P (slots = global virtual-edge slots).
    Key-existence policy — whether an absent key passes conservatively
    (SIF) or fails everywhere (SIF-P) — is the *caller's* concern: the
    caller selects which keys participate in :meth:`combined` and the
    matrix only ANDs the selected rows.
    """

    def __init__(self, num_slots: int) -> None:
        self._num_slots = max(0, int(num_slots))
        self._row_of: Dict[str, int] = {}
        self._version = 0
        self._combined_cache: Dict[
            Tuple[int, ...], Tuple[int, object]
        ] = {}
        self._cache_lock = threading.Lock()
        self._words = max(1, (self._num_slots + 63) // 64)
        self._rows = np.zeros((0, self._words), dtype=np.uint64)
        self._used_rows = 0

    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        return self._num_slots

    @property
    def num_rows(self) -> int:
        return len(self._row_of)

    @property
    def num_words(self) -> int:
        """Words per row — ``ceil(num_slots / 64)`` (at least one)."""
        return max(1, (self._num_slots + 63) // 64)

    @property
    def version(self) -> int:
        """Bumped on every mutation; invalidates cached combined rows."""
        return self._version

    def __contains__(self, key: str) -> bool:
        return key in self._row_of

    def keys(self) -> Iterable[str]:
        return self._row_of.keys()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def ensure_slots(self, num_slots: int) -> None:
        """Grow the slot space (never shrinks; widens rows as needed)."""
        if num_slots <= self._num_slots:
            return
        self._num_slots = int(num_slots)
        new_words = max(1, (self._num_slots + 63) // 64)
        if new_words > self._words:
            widened = np.zeros(
                (self._rows.shape[0], new_words), dtype=np.uint64
            )
            widened[:, : self._words] = self._rows
            self._rows = widened
            self._words = new_words

    def add_row(self, key: str) -> int:
        """Allocate an all-zero row for ``key`` (idempotent)."""
        row = self._row_of.get(key)
        if row is not None:
            return row
        row = self._used_rows
        if row >= self._rows.shape[0]:
            capacity = max(8, self._rows.shape[0] * 2, row + 1)
            grown = np.zeros((capacity, self._words), dtype=np.uint64)
            grown[: self._rows.shape[0]] = self._rows
            self._rows = grown
        self._used_rows += 1
        self._row_of[key] = row
        self._version += 1
        return row

    def drop_row(self, key: str) -> None:
        """Forget ``key`` (its physical row is zeroed and abandoned)."""
        row = self._row_of.pop(key, None)
        if row is None:
            return
        self._rows[row, :] = 0
        self._version += 1

    def set(self, key: str, slot: int) -> None:
        """Set bit ``slot`` in ``key``'s row, allocating it if absent."""
        if slot >= self._num_slots:
            self.ensure_slots(slot + 1)
        row = self._row_of.get(key)
        if row is None:
            row = self.add_row(key)
        self._rows[row, slot >> 6] |= np.uint64(1 << (slot & 63))
        self._version += 1

    def clear(self, key: str, slot: int) -> None:
        """Clear bit ``slot`` in ``key``'s row; no-op for absent keys.

        An emptied row is kept: all-zero means "this key occurs in no
        slot", which prunes every probe — dropping the row would instead
        make the key's absence read as a pass for callers that treat
        missing keys conservatively.
        """
        row = self._row_of.get(key)
        if row is None:
            return
        if 0 <= slot < self._num_slots:
            self._rows[row, slot >> 6] &= ~np.uint64(1 << (slot & 63))
        self._version += 1

    def bulk_set(self, key: str, slots: Iterable[int]) -> None:
        """Set many bits in one row (build-time path, one version bump)."""
        slots = list(slots)
        if not slots:
            self.add_row(key)
            return
        top = max(slots)
        if top >= self._num_slots:
            self.ensure_slots(top + 1)
        row = self.add_row(key)
        idx = np.asarray(slots, dtype=np.int64)
        words = idx >> 6
        masks = np.left_shift(
            np.uint64(1), (idx & 63).astype(np.uint64)
        )
        np.bitwise_or.at(self._rows[row], words, masks)
        self._version += 1

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def combined(self, keys: Sequence[str]):
        """AND of the given keys' rows; ``None`` means "always pass".

        Every key must be present (callers apply their own policy for
        absent keys first).  The result is cached per distinct key set
        until the next mutation.
        """
        if not keys:
            return None
        rows = sorted(self._row_of[k] for k in set(keys))
        cache_key = tuple(rows)
        version = self._version
        hit = self._combined_cache.get(cache_key)
        if hit is not None and hit[0] == version:
            return hit[1]
        if len(rows) == 1:
            combined = self._rows[rows[0]]
        else:
            combined = np.bitwise_and.reduce(
                self._rows[np.asarray(rows, dtype=np.intp)], axis=0
            )
        with self._cache_lock:
            if len(self._combined_cache) >= _COMBINED_CACHE_CAP:
                self._combined_cache.clear()
            self._combined_cache[cache_key] = (version, combined)
        return combined

    def probe(self, combined, slot: int) -> bool:
        """Bit ``slot`` of a combined row (``None`` passes everything)."""
        if combined is None:
            return True
        if slot < 0 or slot >= self._num_slots:
            return False
        return bool(
            (int(combined[slot >> 6]) >> (slot & 63)) & 1
        )

    def to_bigint(self, combined) -> Optional[int]:
        """A combined row as one arbitrary-precision int (or ``None``).

        Scalar probes on a Python int (``(bits >> slot) & 1``) beat
        numpy scalar indexing, which pays per-element boxing; an
        index's loader converts once per query and shifts per edge.  A
        slot past the last word shifts to zero: it fails, as in
        :meth:`probe`.
        """
        if combined is None:
            return None
        return int.from_bytes(
            combined.astype("<u8", copy=False).tobytes(), "little"
        )

    def slots_of(self, key: str) -> FrozenSet[int]:
        """The set bits of one key's row (size accounting / edges_of)."""
        row = self._row_of.get(key)
        if row is None:
            return frozenset()
        out: List[int] = []
        for wi, word in enumerate(self._rows[row].tolist()):
            base = wi << 6
            while word:
                low = word & -word
                out.append(base + low.bit_length() - 1)
                word ^= low
        return frozenset(out)

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
    def skipped_terms(self) -> FrozenSet[str]:
        """Keywords too rare to receive a signature."""
        return self._skipped

    @property
    def matrix(self) -> PackedBitMatrix:
        """The packed row storage."""
        return self._matrix

    def has_signature(self, term: str) -> bool:
        return term in self._matrix

    def bit(self, edge_id: int, term: str) -> bool:
        """``I(e, t)``; keywords without a signature report ``True``."""
        if term not in self._matrix:
            return True
        return self._matrix.probe(self._matrix.combined((term,)), edge_id)

    def combined_row(self, terms: Iterable[str]):
        """AND of the signed query terms' rows, ``None`` = always pass.

        Unsigned (skipped or never-seen) terms are excluded — they
        conservatively pass, so they cannot tighten the AND.
        """
        matrix = self._matrix
        signed = [t for t in terms if t in matrix]
        return matrix.combined(signed)

    def test(self, edge_id: int, terms: Iterable[str]) -> bool:
        """AND-semantics signature test: ``False`` means *prune the edge*.

        The per-slot reference: the bound loaders shift one bigint
        instead, and the tests compare that shift against this.  Keep
        it, and keep it uncached beyond ``PackedBitMatrix.combined``.
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

    def edges_of(self, term: str) -> FrozenSet[int]:
        return self._matrix.slots_of(term)

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
        # Raw fallback: the actual packed representation — one
        # ceil(num_edges / 64)-word uint64 row per signed keyword.
        return self._matrix.size_bytes()
