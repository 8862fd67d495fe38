"""Query workload generation (paper §5, "Workload").

A workload consists of 500 queries by default.  Query locations are
drawn from the locations of the underlying objects; the number of query
keywords ``l`` defaults to 3 and the maximal search distance to
``500 × l`` (the paper's setting in the ``[0, 10000]^2`` space).

Two keyword-sampling modes are provided:

* ``"object"`` (default) — the query keywords are drawn from the
  keyword set of one randomly chosen object, weighted by global term
  frequency.  This mirrors the co-occurrence structure of the paper's
  *real* datasets (a user queries words that actually describe some
  business), guaranteeing the AND constraint is satisfiable somewhere.
* ``"frequency"`` — the paper's literal rule: each keyword ``t`` is
  chosen independently with probability ``freq(t) / Σ freq(t')``.
  Under our synthetic *independent* keyword generator, multi-keyword
  conjunctions of independent draws are rarely satisfied, so this mode
  mainly exercises the pruning paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.database import Database
from ..core.queries import DiversifiedSKQuery, SKQuery
from ..errors import QueryError
from ..text.vocabulary import Vocabulary

__all__ = ["WorkloadConfig", "generate_sk_queries", "generate_diversified_queries"]

_KEYWORD_SOURCES = ("object", "frequency")


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of one workload, with the paper's defaults."""

    num_queries: int = 500
    num_keywords: int = 3  # l
    delta_max: Optional[float] = None  # defaults to 500 * l
    k: int = 10
    lambda_: float = 0.8
    keyword_source: str = "object"
    #: In "object" mode, keywords are drawn with weight ``freq^exponent``;
    #: larger exponents favour frequent (selective-in-numbers) terms the
    #: way real query loads do.
    keyword_weight_exponent: float = 2.0
    seed: int = 101

    def __post_init__(self) -> None:
        if self.num_queries <= 0:
            raise QueryError("num_queries must be positive")
        if self.num_keywords <= 0:
            raise QueryError("num_keywords must be positive")
        if self.keyword_source not in _KEYWORD_SOURCES:
            raise QueryError(
                f"keyword_source must be one of {_KEYWORD_SOURCES}"
            )

    def resolved_delta_max(self) -> float:
        if self.delta_max is not None:
            return self.delta_max
        return 500.0 * self.num_keywords


class _QuerySampler:
    """Shared machinery of the two generator entry points."""

    def __init__(self, db: Database, config: WorkloadConfig) -> None:
        self._db = db
        self._config = config
        self._rng = np.random.default_rng(config.seed)
        self._objects = list(db.store)
        if not self._objects:
            raise QueryError("cannot build a workload over an empty object store")
        self._vocab = Vocabulary(db.store.keyword_frequencies())

    def position(self):
        obj = self._objects[int(self._rng.integers(0, len(self._objects)))]
        return obj.position

    def keywords(self) -> frozenset:
        l = self._config.num_keywords
        if self._config.keyword_source == "frequency":
            return frozenset(self._vocab.sample_terms(l, self._rng))
        # "object" mode: keywords of one object, frequency-weighted.
        for _ in range(64):
            obj = self._objects[int(self._rng.integers(0, len(self._objects)))]
            terms = obj.keywords
            if len(terms) < l:
                continue
            weights = np.array(
                [self._vocab.frequency(t) for t in terms], dtype=np.float64
            )
            weights **= self._config.keyword_weight_exponent
            weights /= weights.sum()
            idx = self._rng.choice(len(terms), size=l, replace=False, p=weights)
            return frozenset(terms[i] for i in idx)
        # Degenerate store (every object has < l keywords): fall back.
        return frozenset(self._vocab.sample_terms(l, self._rng))


def generate_sk_queries(db: Database, config: WorkloadConfig) -> List[SKQuery]:
    """SK query workload over a database."""
    sampler = _QuerySampler(db, config)
    delta_max = config.resolved_delta_max()
    return [
        SKQuery(sampler.position(), sampler.keywords(), delta_max)
        for _ in range(config.num_queries)
    ]


def generate_diversified_queries(
    db: Database, config: WorkloadConfig
) -> List[DiversifiedSKQuery]:
    """Diversified SK query workload (adds ``k`` and ``λ``)."""
    sampler = _QuerySampler(db, config)
    delta_max = config.resolved_delta_max()
    return [
        DiversifiedSKQuery(
            sampler.position(),
            sampler.keywords(),
            delta_max,
            config.k,
            config.lambda_,
        )
        for _ in range(config.num_queries)
    ]
