"""The paper's analytical cost model (§3.2, "Performance Analysis").

For a query with ``l = |q.T|`` keywords over a road network where each
edge carries on average ``m`` objects with ``s`` keywords drawn
uniformly from a vocabulary of size ``|V|``, and an expansion that
visits ``l_e`` edges, the expected number of objects loaded is

* ``C1 = l_e · m`` — objects stored with their edges (CCAM): every
  object on every visited edge is fetched for the keyword test;
* ``C2 = l_e · l · m·s/|V|`` — inverted file (IF): for each query
  keyword, the expected number of objects on the edge containing it;
* ``C3 = l_e · p_s^l · l · m·s/|V|`` — signature-based inverted file
  (SIF): the edge is only probed when every keyword's signature bit is
  set, which happens with probability ``p_s^l`` where
  ``p_s = 1 − (1 − s/|V|)^m`` is the probability that at least one of
  the edge's ``m`` objects carries a given keyword.

The model assumes independent, uniformly-drawn keywords; the test suite
validates it against measured loads on exactly such a dataset
(``zipf_z=0``, ``num_topics=1``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import QueryError

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Expected object loads per §3.2.

    Parameters
    ----------
    objects_per_edge:
        ``m`` — average number of objects on an edge.
    keywords_per_object:
        ``s`` — average keyword-set size.
    vocabulary_size:
        ``|V|``.
    """

    objects_per_edge: float
    keywords_per_object: float
    vocabulary_size: int

    def __post_init__(self) -> None:
        if self.objects_per_edge < 0:
            raise QueryError("objects_per_edge must be non-negative")
        if not 0 <= self.keywords_per_object <= self.vocabulary_size:
            raise QueryError(
                "keywords_per_object must lie in [0, vocabulary_size]"
            )
        if self.vocabulary_size <= 0:
            raise QueryError("vocabulary_size must be positive")

    # ------------------------------------------------------------------
    @property
    def keyword_presence_probability(self) -> float:
        """``p_s = 1 − (1 − s/|V|)^m``: some object on the edge has t."""
        per_object = self.keywords_per_object / self.vocabulary_size
        return 1.0 - (1.0 - per_object) ** self.objects_per_edge

    def matching_objects_per_edge(self) -> float:
        """Expected objects on one edge containing one given keyword."""
        return (
            self.objects_per_edge
            * self.keywords_per_object
            / self.vocabulary_size
        )

    # ------------------------------------------------------------------
    def c1_edge_store(self, edges_accessed: int) -> float:
        """``C1``: objects loaded when objects live with their edges."""
        return edges_accessed * self.objects_per_edge

    def c2_inverted_file(self, edges_accessed: int, num_keywords: int) -> float:
        """``C2``: objects loaded through the plain inverted file."""
        return (
            edges_accessed * num_keywords * self.matching_objects_per_edge()
        )

    def c3_signature(self, edges_accessed: int, num_keywords: int) -> float:
        """``C3``: objects loaded through the signature-based file.

        Exact expectation: postings of keyword ``t`` are loaded only
        when *every* query keyword's bit is set.  ``t``'s own presence
        is implied by its postings being non-empty
        (``E[N_t · 1(N_t ≥ 1)] = E[N_t]``), so the pass probability
        contributes ``p_s^(l−1)`` for the *other* keywords:

        ``C3 = l_e · l · (m·s/|V|) · p_s^(l−1)``

        The paper's printed formula uses ``p_s^l`` — it multiplies the
        unconditional per-term expectation by the full pass
        probability, double-counting the queried keyword's own rarity.
        Both agree that SIF's advantage grows with ``l``; only the
        exact form matches measurements (see
        ``tests/core/test_analysis.py``).
        """
        pass_others = self.keyword_presence_probability ** max(
            0, num_keywords - 1
        )
        return pass_others * self.c2_inverted_file(edges_accessed, num_keywords)

    @classmethod
    def from_store(cls, store) -> "CostModel":
        """Fit the model parameters from an object store."""
        network_edges = store.network.num_edges
        total_objects = len(store)
        m = total_objects / max(1, network_edges)
        s = store.average_keywords_per_object()
        vocab = store.vocabulary_size
        return cls(m, s, vocab)
