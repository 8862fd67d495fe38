"""Query-log models for building SIF-P (paper §3.3 Remark 1, Fig. 10).

The partitioner needs a query log ``Q`` with per-query probabilities.
Three models are evaluated in the paper:

* **real** — the actual query load is available and used directly
  (SIF-P-Real, the best case);
* **freq** — no log is available; one is generated per edge assuming
  frequent keywords are more likely to be queried (SIF-P-Freq, the
  paper's default);
* **random** — keywords are drawn uniformly per edge (SIF-P-Rand, the
  stress case whose keyword distribution diverges from the load).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from .partition import QueryLog

__all__ = [
    "log_from_workload",
    "frequency_edge_log",
    "random_edge_log",
    "workload_log_builder",
    "frequency_log_builder",
    "random_log_builder",
]


def log_from_workload(
    keyword_sets: Iterable[Iterable[str]],
) -> QueryLog:
    """Build a query log from an observed workload (SIF-P-Real).

    Duplicate keyword sets are merged; probabilities are the empirical
    frequencies.
    """
    counts: Counter = Counter(frozenset(kws) for kws in keyword_sets)
    total = sum(counts.values())
    if total == 0:
        return []
    return [(terms, n / total) for terms, n in sorted(
        counts.items(), key=lambda kv: (-kv[1], sorted(kv[0]))
    )]


def _local_frequencies(
    object_keywords: Sequence[FrozenSet[str]],
) -> Tuple[List[str], np.ndarray]:
    freq: Dict[str, int] = {}
    for kws in object_keywords:
        for term in kws:
            freq[term] = freq.get(term, 0) + 1
    terms = sorted(freq, key=lambda t: (-freq[t], t))
    weights = np.array([freq[t] for t in terms], dtype=np.float64)
    return terms, weights / weights.sum()


def frequency_edge_log(
    object_keywords: Sequence[FrozenSet[str]],
    num_queries: int,
    num_terms: int,
    rng: np.random.Generator,
) -> QueryLog:
    """Synthesise a per-edge log weighted by local keyword frequency."""
    if not object_keywords or num_queries <= 0:
        return []
    terms, probs = _local_frequencies(object_keywords)
    return _sample_log(terms, probs, num_queries, num_terms, rng)


def random_edge_log(
    object_keywords: Sequence[FrozenSet[str]],
    num_queries: int,
    num_terms: int,
    rng: np.random.Generator,
) -> QueryLog:
    """Synthesise a per-edge log with uniformly random local keywords."""
    if not object_keywords or num_queries <= 0:
        return []
    terms, _ = _local_frequencies(object_keywords)
    probs = np.full(len(terms), 1.0 / len(terms))
    return _sample_log(terms, probs, num_queries, num_terms, rng)


def _sample_log(
    terms: List[str],
    probs: np.ndarray,
    num_queries: int,
    num_terms: int,
    rng: np.random.Generator,
) -> QueryLog:
    counts: Counter = Counter()
    k = min(num_terms, len(terms))
    for _ in range(num_queries):
        if k == len(terms):
            chosen = frozenset(terms)
        else:
            idx = rng.choice(len(terms), size=k, replace=False, p=probs)
            chosen = frozenset(terms[i] for i in idx)
        counts[chosen] += 1
    total = sum(counts.values())
    return [(q, n / total) for q, n in sorted(
        counts.items(), key=lambda kv: (-kv[1], sorted(kv[0]))
    )]


def workload_log_builder(keyword_sets: Iterable[Iterable[str]]):
    """SIF-P-Real: partition every edge against the actual query load.

    Returns a ``log_builder`` suitable for
    :class:`repro.index.sif_p.SIFPIndex`; queries whose keywords do not
    all occur on an edge contribute zero cost there, so passing the
    global log to every edge is exact.
    """
    log = log_from_workload(keyword_sets)

    def build(object_keywords: Sequence[FrozenSet[str]], rng) -> QueryLog:
        return log

    return build


#: Queries in each edge's synthetic log.
LOG_QUERIES = 32


def frequency_log_builder(num_terms: int = 3):
    """SIF-P-Freq (the default): per-edge frequency-weighted logs."""

    def build(
        object_keywords: Sequence[FrozenSet[str]], rng: np.random.Generator
    ) -> QueryLog:
        return frequency_edge_log(object_keywords, LOG_QUERIES, num_terms, rng)

    return build


def random_log_builder(num_terms: int = 3):
    """SIF-P-Rand: per-edge uniformly random logs (the stress case)."""

    def build(
        object_keywords: Sequence[FrozenSet[str]], rng: np.random.Generator
    ) -> QueryLog:
        return random_edge_log(object_keywords, LOG_QUERIES, num_terms, rng)

    return build
