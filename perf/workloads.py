"""The four workloads: what they are, why, and how their inputs are made.

Everything here is a pure function of ``(workload, seed, size)`` and a
plain snapshot of the dataset (the :class:`Catalogue`), drawn with
``random.Random`` — no ``repro`` code takes part, so a change to the
library's own workload module cannot move the benchmark's inputs.  The
program under test receives only the generated operations.

Positions are kept as ``(edge, fraction along the edge)`` and turned
into weight offsets when an operation is applied, so a query keeps its
geometric spot after an edge has been reweighted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = ["Op", "Spec", "WORKLOADS", "Catalogue", "generate", "ops_for"]

QUERY_KINDS = ("sk", "div")
UPDATE_KINDS = ("insert", "delete", "edge_weight")


@dataclass(frozen=True)
class Op:
    """One operation of a stream: a query or an update."""

    kind: str
    edge_id: int = -1
    fraction: float = 0.0
    terms: frozenset = frozenset()
    delta_max: float = 0.0
    k: int = 0
    lambda_: float = 0.0
    object_id: int = -1
    factor: float = 1.0

    @property
    def is_query(self) -> bool:
        return self.kind in QUERY_KINDS


@dataclass(frozen=True)
class Spec:
    """Shape of one workload (paper §5 defaults unless stated)."""

    name: str
    why: str
    kind: str
    num_keywords: int
    delta_max: float
    k: int = 10
    lambda_: float = 0.8
    #: Positions come from a hot region instead of from all objects: one
    #: cell of a ``HOT_GRID × HOT_GRID`` grid of equally many objects.
    #: Every ``REGION_OPS`` operations the region moves on, touring all
    #: cells in a seed-chosen order before any repeats — measured, mean
    #: page reads differ 12-fold between neighbourhoods, and a run that
    #: sat in one of them would report the neighbourhood, not the code.
    hot_region: bool = False
    #: One update after every this many queries (0: read-only).
    update_every: int = 0
    #: Operations per second of measuring time the stream is sized for
    #: (the rate of the first baseline, rounded down).  The amount of
    #: work is fixed by ``--seconds``, not by how fast the program runs,
    #: so counts stay comparable between a commit and its parent.
    nominal_ops_per_second: float = 50.0


WORKLOADS: Dict[str, Spec] = {
    spec.name: spec for spec in (
        Spec(
            name="sk_range",
            why=("boolean SK range queries run only plan, INE expansion, "
                 "signature test and object load, so pairwise or scoring "
                 "changes must show no change here"),
            kind="sk", num_keywords=3, delta_max=1500.0,
            nominal_ops_per_second=80.0,
        ),
        Spec(
            name="div_default",
            why=("diversified queries at the paper's defaults have small "
                 "candidate pools, so cost spreads over plan, expansion, "
                 "pairwise and bookkeeping: the typical query"),
            kind="div", num_keywords=3, delta_max=1500.0,
            nominal_ops_per_second=50.0,
        ),
        Spec(
            name="div_wide",
            why=("two keywords and a 3000 range give large pools, so "
                 "pairwise distances and greedy or core-pair scoring "
                 "dominate and expansion is minor: the mirror of sk_range"),
            kind="div", num_keywords=2, delta_max=3000.0,
            nominal_ops_per_second=18.0,
        ),
        Spec(
            name="mixed_updates",
            why=("default-shaped queries from a moving hot region with an "
                 "insert, delete or reweight after every 4th: writes beside "
                 "reads, rebuild cost and stale answers show here only"),
            kind="div", num_keywords=3, delta_max=1500.0,
            hot_region=True, update_every=4,
            nominal_ops_per_second=40.0,
        ),
    )
}

#: Share of update kinds in ``mixed_updates``.
UPDATE_MIX = (("insert", 0.45), ("delete", 0.45), ("edge_weight", 0.10))

#: Edge reweights scale the weight by a factor drawn log-uniformly here.
REWEIGHT_RANGE = (0.5, 2.0)

#: Exponent on term frequency when a query draws its keywords from one
#: object's keyword set: frequent terms are favoured, as in real loads.
KEYWORD_WEIGHT_EXPONENT = 2.0

#: The hot region is one of ``HOT_GRID ** 2`` cells (1/16 of the objects).
HOT_GRID = 4

#: Operations served from one hot region before it moves: a
#: ``--seconds 12`` run of ``mixed_updates`` tours the grid exactly once.
REGION_OPS = 30


@dataclass(frozen=True)
class CatalogueObject:
    object_id: int
    edge_id: int
    fraction: float
    keywords: Tuple[str, ...]
    x: float
    y: float


class Catalogue:
    """What the generators may know about the dataset: its objects."""

    def __init__(self, objects: Sequence[CatalogueObject]) -> None:
        self.objects = sorted(objects, key=lambda o: o.object_id)
        self.frequency: Dict[str, int] = {}
        for obj in self.objects:
            for term in obj.keywords:
                self.frequency[term] = self.frequency.get(term, 0) + 1

    @classmethod
    def of_database(cls, db) -> "Catalogue":
        objects = []
        for obj in db.store:
            edge = db.network.edge(obj.position.edge_id)
            fraction = min(1.0, obj.position.offset / edge.weight)
            point = edge.point_at_fraction(fraction)
            objects.append(CatalogueObject(
                obj.object_id, edge.edge_id, fraction,
                tuple(sorted(obj.keywords)), point.x, point.y,
            ))
        return cls(objects)

    def grid_cells(self, side: int) -> List[List[CatalogueObject]]:
        """``side × side`` cells holding equally many objects each:
        ``side`` bands by x, each cut into ``side`` by y."""
        def cut(objects, key):
            ranked = sorted(objects, key=key)
            return [
                ranked[len(ranked) * i // side: len(ranked) * (i + 1) // side]
                for i in range(side)
            ]

        return [
            cell
            for band in cut(self.objects, lambda o: (o.x, o.object_id))
            for cell in cut(band, lambda o: (o.y, o.object_id))
        ]


class _Sampler:
    """Draws queries: a position from ``pool`` (all objects, or the
    current hot region), keywords from any object."""

    def __init__(self, spec: Spec, catalogue: Catalogue,
                 rng: random.Random) -> None:
        self.spec = spec
        self.catalogue = catalogue
        self.rng = rng
        self.pool: Sequence[CatalogueObject] = catalogue.objects
        self.donors = [
            o for o in catalogue.objects if len(o.keywords) >= spec.num_keywords
        ] or catalogue.objects

    def keywords(self) -> frozenset:
        """Keywords of one object, drawn by frequency without replacement."""
        rng = self.rng
        terms = list(self.donors[rng.randrange(len(self.donors))].keywords)
        weights = [
            self.catalogue.frequency[t] ** KEYWORD_WEIGHT_EXPONENT for t in terms
        ]
        chosen = []
        for _ in range(min(self.spec.num_keywords, len(terms))):
            i = rng.choices(range(len(terms)), weights=weights)[0]
            chosen.append(terms.pop(i))
            weights.pop(i)
        return frozenset(chosen)

    def query(self) -> Op:
        spec = self.spec
        where = self.pool[self.rng.randrange(len(self.pool))]
        return Op(
            kind=spec.kind, edge_id=where.edge_id, fraction=where.fraction,
            terms=self.keywords(), delta_max=spec.delta_max,
            k=spec.k if spec.kind == "div" else 0,
            lambda_=spec.lambda_ if spec.kind == "div" else 0.0,
        )


def _rng(seed: int, workload: str, purpose: str) -> random.Random:
    # A string seed is hashed with SHA-512: independent of PYTHONHASHSEED.
    return random.Random(f"{seed}/{workload}/{purpose}")


def generate(spec: Spec, catalogue: Catalogue, seed: int, count: int,
             purpose: str = "stream") -> List[Op]:
    """``count`` operations of one workload, a pure function of the seed.

    A longer stream extends a shorter one: operation ``i`` does not
    depend on ``count``.  ``purpose="warmup"`` gives an independent
    read-only stream of the same query shape.
    """
    rng = _rng(seed, spec.name, purpose)
    region_rng = _rng(seed, spec.name, purpose + "/region")
    read_only = purpose == "warmup" or not spec.update_every
    sampler = _Sampler(spec, catalogue, rng)
    cells = catalogue.grid_cells(HOT_GRID) if spec.hot_region else []
    tour: List[List[CatalogueObject]] = []
    deleted: set = set()

    ops: List[Op] = []
    queries_since_update = 0
    while len(ops) < count:
        if spec.hot_region and len(ops) % REGION_OPS == 0:
            if not tour:
                tour = region_rng.sample(cells, len(cells))
            sampler.pool = tour.pop()
        if not read_only and queries_since_update == spec.update_every:
            ops.append(_update(rng, sampler, deleted))
            queries_since_update = 0
            continue
        ops.append(sampler.query())
        queries_since_update += 1
    return ops


def _update(rng: random.Random, sampler: _Sampler, deleted: set) -> Op:
    """One update landing where the queries look; an inserted object
    carries the keywords of some existing one, so queries can find it."""
    kinds, weights = zip(*UPDATE_MIX)
    kind = rng.choices(kinds, weights=weights)[0]
    where = sampler.pool[rng.randrange(len(sampler.pool))]
    keyword_donor = sampler.donors[rng.randrange(len(sampler.donors))]
    if kind == "delete" and where.object_id in deleted:
        kind = "insert"
    if kind == "insert":
        return Op("insert", edge_id=where.edge_id, fraction=where.fraction,
                  terms=frozenset(keyword_donor.keywords))
    if kind == "delete":
        # Only objects of the initial dataset, each at most once: the
        # stream is fixed before the run and must never fail.
        deleted.add(where.object_id)
        return Op("delete", object_id=where.object_id)
    lo, hi = REWEIGHT_RANGE
    factor = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return Op("edge_weight", edge_id=where.edge_id, factor=factor)


def ops_for(spec: Spec, seconds: float, passes: int) -> int:
    """Operations per pass for a run that measures ``seconds`` seconds."""
    return max(20, int(spec.nominal_ops_per_second * seconds / passes))
