"""Spatio-textual objects and the object store (paper §2.1).

An object is a point on an edge plus a set of keywords, held as
:class:`Keywords`.  The :class:`ObjectStore` keeps the master copy of
every object, the per-edge object lists ordered by offset (the
"visiting order along the edge" that §3.3 partitions), and snapping of
raw 2-d points onto their closest edges via the network R-tree.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import DatasetError, GraphError
from ..spatial.geometry import Point, project_onto_segment
from ..spatial.rtree import RTree, RTreeEntry
from .graph import Edge, NetworkPosition, RoadNetwork

__all__ = ["Keywords", "SpatioTextualObject", "ObjectStore", "snap_point_to_edge"]

#: Edges, nearest by MBR, that :func:`snap_point_to_edge` projects onto.
SNAP_CANDIDATES = 8


class Keywords(tuple):
    """An object's keyword set: its distinct terms as a sorted tuple.

    It is the largest per-object allocation, so it is kept as small as
    a tuple of the (shared) term strings: 40 B plus 8 B a term, 160 B
    an object on SYN (14.9 terms), where a ``frozenset`` took 1 000 B
    (``sys.getsizeof``).  It behaves as the frozenset of its terms
    does: ``in``, ``len``, iteration (in sorted order), ``<=`` / ``<``
    / ``>=`` / ``>`` / ``==`` against another :class:`Keywords` or any
    set in either direction, ``&`` (a ``frozenset``) and a ``hash``
    equal to the frozenset's.  Tuple ordering is gone: ``<`` is the
    proper subset.  Nothing on the query path tests it (postings
    answer the AND), which is why its ``in`` may be a linear scan.
    """

    __slots__ = ()

    def __new__(cls, terms: Iterable[str] = ()) -> "Keywords":
        if type(terms) is cls:
            return terms
        return tuple.__new__(cls, sorted(set(terms)))

    __hash__ = AbstractSet._hash

    def __eq__(self, other: object) -> bool:
        # A tuple or list of the same terms is unequal, as it is to a
        # frozenset (and tuple.__eq__ would say otherwise).
        if isinstance(other, Keywords):
            return tuple.__eq__(self, other)
        other = _as_set(other)
        return (
            other is not None
            and len(self) == len(other)
            and other.issuperset(self)
        )

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __le__(self, other: object):
        other = _as_set(other)
        if other is None:
            return NotImplemented
        return other.issuperset(self)

    def __lt__(self, other: object):
        other = _as_set(other)
        if other is None:
            return NotImplemented
        return len(self) < len(other) and other.issuperset(self)

    def __ge__(self, other: object):
        other = _as_set(other)
        if other is None:
            return NotImplemented
        return not other.difference(self)

    def __gt__(self, other: object):
        other = _as_set(other)
        if other is None:
            return NotImplemented
        return len(self) > len(other) and not other.difference(self)

    def __and__(self, other: object):
        other = _as_set(other)
        if other is None:
            return NotImplemented
        return frozenset(t for t in self if t in other)

    __rand__ = __and__


AbstractSet.register(Keywords)


def _as_set(other: object):
    """``other`` as a built-in set, or ``None`` when it is no set."""
    if isinstance(other, (set, frozenset)):
        return other
    if isinstance(other, AbstractSet):
        return frozenset(other)
    return None


@dataclass(frozen=True)
class SpatioTextualObject:
    """A spatio-textual object: a network position and a keyword set.

    ``keywords`` may be given as any iterable of terms; it is stored as
    :class:`Keywords`.
    """

    object_id: int
    position: NetworkPosition
    keywords: Keywords

    def __post_init__(self) -> None:
        if type(self.keywords) is not Keywords:
            object.__setattr__(self, "keywords", Keywords(self.keywords))

    def contains_all(self, terms: Iterable[str]) -> bool:
        """AND semantics of the boolean SK query."""
        return all(t in self.keywords for t in terms)

def snap_point_to_edge(
    network: RoadNetwork, edge_rtree: RTree, p: Point
) -> NetworkPosition:
    """Snap a raw 2-d point onto its closest road segment.

    Paper §5: "we move an object to its closest road segment if it does
    not lie on any edge".  The network R-tree prunes in a
    branch-and-bound fashion (§2.2); the :data:`SNAP_CANDIDATES`
    nearest MBRs are refined with exact point-segment projection.
    """
    entries = edge_rtree.nearest(p, k=SNAP_CANDIDATES)
    if not entries:
        raise GraphError("cannot snap onto an empty network")
    best: Optional[Tuple[float, Edge, float]] = None
    for entry in entries:
        edge = network.edge(entry.payload)
        closest, t = project_onto_segment(p, edge.p1, edge.p2)
        dist = p.distance_to(closest)
        if best is None or dist < best[0]:
            best = (dist, edge, t)
    _, edge, t = best
    return NetworkPosition(edge.edge_id, edge.weight * t)


class ObjectStore:
    """Master store of spatio-textual objects, grouped by edge.

    Objects on the same edge are kept sorted by offset, matching the
    paper's "objects indexed by their visiting order along the edge"
    (§3.3).  The store itself is an in-memory catalogue; disk-resident
    access paths over it are built by the index implementations in
    :mod:`repro.index`.
    """

    def __init__(self, network: RoadNetwork) -> None:
        self._network = network
        self._objects: Dict[int, SpatioTextualObject] = {}
        self._by_edge: Dict[int, List[int]] = {}
        # Monotonic id source: ``len(self._objects)`` would recycle ids
        # after a remove(), aliasing a new object with postings that
        # still reference the deleted one.
        self._next_id = 0
        # Catalogue statistics, maintained by add() / remove() so that
        # no reader scans the objects: objects carrying each term (a
        # term nobody carries has no key) and keywords over all objects.
        self._document_frequency: Dict[str, int] = {}
        self._keyword_total = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(
        self, position: NetworkPosition, keywords: Iterable[str]
    ) -> SpatioTextualObject:
        """Add an object at ``position``; keywords must be non-empty."""
        kw = Keywords(keywords)
        if not kw:
            raise DatasetError("an object must carry at least one keyword")
        edge = self._network.edge(position.edge_id)
        if position.offset > edge.weight + 1e-9:
            raise DatasetError(
                f"object offset {position.offset} beyond edge weight {edge.weight}"
            )
        obj = SpatioTextualObject(self._next_id, position, kw)
        self._next_id += 1
        self._objects[obj.object_id] = obj
        self._by_edge.setdefault(position.edge_id, []).append(obj.object_id)
        df = self._document_frequency
        for term in kw:
            df[term] = df.get(term, 0) + 1
        self._keyword_total += len(kw)
        return obj

    def remove(self, object_id: int) -> SpatioTextualObject:
        """Remove an object; returns the removed object.

        Ids are never reused (see ``_next_id``), so stale index
        postings referencing the removed id resolve to "unknown object"
        instead of silently aliasing a newer insert.
        """
        obj = self.get(object_id)
        del self._objects[object_id]
        ids = self._by_edge.get(obj.position.edge_id)
        if ids is not None:
            ids.remove(object_id)
            if not ids:
                del self._by_edge[obj.position.edge_id]
        df = self._document_frequency
        for term in obj.keywords:
            if df[term] == 1:
                del df[term]
            else:
                df[term] -= 1
        self._keyword_total -= len(obj.keywords)
        return obj

    def rescale_edge_offsets(self, edge_id: int, factor: float) -> None:
        """Rescale object offsets on one edge by ``factor``.

        Offsets are in *weight* units, so an edge reweight from ``w`` to
        ``w'`` moves every resident object's offset by ``w'/w`` — the
        object stays at the same geometric point (same fraction along
        the edge).  Visiting order is preserved (factor > 0).  Keyword
        sets are untouched, so the catalogue statistics are too.
        """
        if factor <= 0:
            raise DatasetError("rescale factor must be positive")
        for oid in self._by_edge.get(edge_id, []):
            old = self._objects[oid]
            self._objects[oid] = SpatioTextualObject(
                old.object_id,
                NetworkPosition(edge_id, old.position.offset * factor),
                old.keywords,
            )

    def freeze(self) -> None:
        """Sort every per-edge list by offset (call once after loading)."""
        for edge_id in self._by_edge:
            self.resort_edge(edge_id)

    def resort_edge(self, edge_id: int) -> None:
        """Restore the visiting order of one edge after an insertion."""
        ids = self._by_edge.get(edge_id)
        if ids:
            ids.sort(key=lambda oid: self._objects[oid].position.offset)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[SpatioTextualObject]:
        return iter(self._objects.values())

    @property
    def network(self) -> RoadNetwork:
        return self._network

    def get(self, object_id: int) -> SpatioTextualObject:
        try:
            return self._objects[object_id]
        except KeyError:
            raise DatasetError(f"unknown object {object_id}") from None

    def objects_on_edge(self, edge_id: int) -> List[SpatioTextualObject]:
        """Objects on ``edge_id`` ordered by offset from the reference node."""
        return [self._objects[oid] for oid in self._by_edge.get(edge_id, [])]

    def edges_with_objects(self) -> Iterator[int]:
        return iter(self._by_edge.keys())

    def object_point(self, object_id: int) -> Point:
        return self._network.position_point(self.get(object_id).position)

    # ------------------------------------------------------------------
    # Statistics (Table 2)
    # ------------------------------------------------------------------
    @property
    def vocabulary_size(self) -> int:
        return len(self._document_frequency)

    def document_frequency(self, term: str) -> int:
        """Number of objects containing ``term`` (0 if none does)."""
        return self._document_frequency.get(term, 0)

    def keyword_frequencies(self) -> Dict[str, int]:
        """Document frequency of every keyword, as a fresh snapshot."""
        return dict(self._document_frequency)

    def average_keywords_per_object(self) -> float:
        if not self._objects:
            return 0.0
        return self._keyword_total / len(self._objects)


def build_edge_rtree(network: RoadNetwork, file) -> RTree:
    """Bulk load the network R-tree over edge MBRs (paper §2.2)."""
    rtree = RTree(file)
    entries = [RTreeEntry(edge.mbr, edge.edge_id) for edge in network.edges()]
    rtree.bulk_load(entries)
    return rtree
