"""Spatio-textual object generation.

Objects are placed uniformly along the network (edges weighted by
length, offsets uniform) and tagged with Zipf-distributed keyword sets,
mirroring the paper's synthetic dataset construction: "their
corresponding keywords are obtained from a vocabulary whose term
frequencies follow the Zipf distribution".
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import DatasetError
from ..network.graph import NetworkPosition, RoadNetwork
from ..network.objects import ObjectStore
from ..text.vocabulary import make_term_names
from ..text.zipf import ZipfSampler

__all__ = ["populate_objects", "random_positions"]


def random_positions(
    network: RoadNetwork, count: int, rng: np.random.Generator
) -> List[NetworkPosition]:
    """``count`` positions uniform along the network's total length."""
    edges = list(network.edges())
    if not edges:
        raise DatasetError("network has no edges")
    lengths = np.array([e.length for e in edges], dtype=np.float64)
    probs = lengths / lengths.sum()
    choices = rng.choice(len(edges), size=count, p=probs)
    fractions = rng.uniform(0.0, 1.0, size=count)
    positions = []
    for edge_idx, t in zip(choices, fractions):
        edge = edges[int(edge_idx)]
        positions.append(NetworkPosition(edge.edge_id, edge.weight * float(t)))
    return positions


def populate_objects(
    store: ObjectStore,
    num_objects: int,
    vocabulary_size: int,
    avg_keywords: float,
    zipf_z: float = 1.1,
    seed: int = 0,
    num_topics: Optional[int] = None,
) -> None:
    """Fill an object store with synthetic spatio-textual objects.

    Keyword-set sizes are Poisson-distributed around ``avg_keywords``
    (minimum 1); terms are drawn without replacement under a Zipf law
    with skew ``zipf_z``.

    Keywords are *topic-structured*: the vocabulary is interleaved into
    ``num_topics`` pools (defaults to one pool per ~40 terms) and every
    object draws all its keywords from one Zipf-chosen pool.  Real
    spatio-textual corpora (business directories, tweets) exhibit this
    co-occurrence — "pancake" and "lobster" appear together on menus —
    and without it multi-keyword AND queries would be unsatisfiable in
    synthetic data.  ``num_topics=1`` disables the correlation.
    """
    if num_objects <= 0:
        raise DatasetError("num_objects must be positive")
    if avg_keywords < 1:
        raise DatasetError("avg_keywords must be at least 1")
    rng = np.random.default_rng(seed)
    term_names = make_term_names(vocabulary_size)
    if num_topics is None:
        num_topics = max(1, len(term_names) // 40)
    num_topics = max(1, min(num_topics, len(term_names)))

    # Interleave ranks across pools so every topic mixes frequent and
    # rare terms and the global frequency distribution stays Zipf-like.
    pools = [term_names[t::num_topics] for t in range(num_topics)]
    samplers = [
        ZipfSampler(pool, z=zipf_z, seed=seed + 1 + t)
        for t, pool in enumerate(pools)
    ]
    topic_probs = np.arange(1, num_topics + 1, dtype=np.float64) ** (-0.8)
    topic_probs /= topic_probs.sum()

    positions = random_positions(store.network, num_objects, rng)
    sizes = np.maximum(1, rng.poisson(avg_keywords, size=num_objects))
    topics = rng.choice(num_topics, size=num_objects, p=topic_probs)
    for position, size, topic in zip(positions, sizes, topics):
        store.add(position, samplers[int(topic)].sample_distinct(int(size)))
    store.freeze()
