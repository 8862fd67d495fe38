"""Dataset profiles mirroring the paper's Table 2 at laptop scale.

The paper's datasets (NA, SF, TW, SYN) come from real sources we cannot
redistribute; these profiles rebuild their *shape* — network family and
density, objects-per-edge ratio, vocabulary size, keywords per object,
skew — at roughly 1/100 scale (DESIGN.md §2).  Each profile is fully
deterministic given its seed, and every knob can be overridden to drive
the Fig. 16 parameter sweeps.

=========  ==========================  ==========================
profile    paper original              reproduced shape
=========  ==========================  ==========================
``NA``     175 812 nodes / 179 178     sparse perturbed grid,
           edges; 2.2 M objects;       ~12 objects/edge, small
           208 K terms; 6.8 kw/obj     keyword sets
``SF``     174 955 / 223 000; 2.25 M   denser planar graph, rich
           objects; 81 K terms; 26     keyword sets (26 → 16
           kw/obj                      scaled), small vocabulary
``TW``     321 270 / 800 172; 11.5 M   dense kNN graph, large
           tweets; 1.6 M terms; 10.8   vocabulary, ~14 obj/edge
``SYN``    17 K / 223 K; 1 M objects;  planar graph, Zipf z=1.1,
           100 K terms; 15 kw/obj      all knobs sweepable
=========  ==========================  ==========================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..core.database import Database, collector_paused
from ..errors import DatasetError
from ..network.graph import RoadNetwork
from .generator import populate_objects
from .synthetic import grid_network, random_planar_network

__all__ = ["DatasetProfile", "PROFILES", "build_dataset", "build_network"]


@dataclass(frozen=True)
class DatasetProfile:
    """A reproducible dataset recipe."""

    name: str
    network_kind: str  # "grid" | "planar"
    num_nodes: int
    neighbours: int  # planar only: kNN degree
    num_objects: int
    vocabulary_size: int
    avg_keywords: float
    zipf_z: float = 1.1
    num_topics: Optional[int] = None  # default: one topic per ~40 terms
    seed: int = 11

    def scaled(self, factor: float) -> "DatasetProfile":
        """Scale node and object counts by ``factor`` (≥ 0.05)."""
        if factor <= 0:
            raise DatasetError("scale factor must be positive")
        return replace(
            self,
            num_nodes=max(16, int(self.num_nodes * factor)),
            num_objects=max(32, int(self.num_objects * factor)),
            vocabulary_size=max(16, int(self.vocabulary_size * math.sqrt(factor))),
        )


#: Laptop-scale renditions of the paper's four datasets.
PROFILES: Dict[str, DatasetProfile] = {
    "NA": DatasetProfile(
        name="NA",
        network_kind="grid",
        num_nodes=4096,
        neighbours=0,
        num_objects=24000,
        vocabulary_size=1500,
        avg_keywords=6.8,
        zipf_z=1.05,
        num_topics=60,
        seed=11,
    ),
    "SF": DatasetProfile(
        name="SF",
        network_kind="planar",
        num_nodes=3000,
        neighbours=3,
        num_objects=28000,
        vocabulary_size=700,
        avg_keywords=16,
        zipf_z=1.0,
        num_topics=16,
        seed=23,
    ),
    "TW": DatasetProfile(
        name="TW",
        network_kind="planar",
        num_nodes=4000,
        neighbours=5,
        num_objects=36000,
        vocabulary_size=3000,
        avg_keywords=10.8,
        zipf_z=1.0,
        num_topics=120,
        seed=37,
    ),
    "SYN": DatasetProfile(
        name="SYN",
        network_kind="planar",
        num_nodes=2500,
        neighbours=3,
        num_objects=20000,
        vocabulary_size=1000,
        avg_keywords=15,
        zipf_z=1.1,
        num_topics=40,
        seed=53,
    ),
}


def build_network(profile: DatasetProfile) -> RoadNetwork:
    """Build the road network of a profile."""
    if profile.network_kind == "grid":
        side = max(2, int(round(math.sqrt(profile.num_nodes))))
        return grid_network(side, side, seed=profile.seed)
    if profile.network_kind == "planar":
        return random_planar_network(
            profile.num_nodes, neighbours=profile.neighbours, seed=profile.seed
        )
    raise DatasetError(f"unknown network kind {profile.network_kind!r}")


def build_dataset(
    profile_or_name,
    scale: float = 1.0,
    buffer_pages: Optional[int] = None,
    **overrides,
) -> Database:
    """Build a frozen :class:`Database` for a profile (or profile name).

    ``overrides`` replace profile fields (e.g. ``num_objects=2000`` or
    ``zipf_z=1.3`` for the Fig. 16 sweeps); ``scale`` shrinks or grows
    the whole dataset proportionally.  The build runs with the garbage
    collector paused (:func:`~repro.core.database.collector_paused`).
    """
    if isinstance(profile_or_name, str):
        try:
            profile = PROFILES[profile_or_name.upper()]
        except KeyError:
            raise DatasetError(
                f"unknown profile {profile_or_name!r}; expected one of "
                f"{sorted(PROFILES)}"
            ) from None
    else:
        profile = profile_or_name
    if scale != 1.0:
        profile = profile.scaled(scale)
    if overrides:
        # Overrides are authoritative: applied after scaling.
        profile = replace(profile, **overrides)

    with collector_paused():
        network = build_network(profile)
        db = Database(network, buffer_pages=buffer_pages)
        populate_objects(
            db.store,
            num_objects=profile.num_objects,
            vocabulary_size=profile.vocabulary_size,
            avg_keywords=profile.avg_keywords,
            zipf_z=profile.zipf_z,
            seed=profile.seed,
            num_topics=profile.num_topics,
        )
        db.freeze()
    return db
