"""Zipf-distributed term sampling (paper §5, dataset SYN).

The synthetic dataset draws object keywords "from a vocabulary whose
term frequencies follow the Zipf distribution where the parameter z
varies from 0.9 to 1.3".  This module provides a seeded sampler over a
rank-based Zipf law: term of rank ``r`` (1-based) has probability
proportional to ``1 / r^z``.

Sampling inverts the distribution's CDF over ``Generator.random``:
:func:`cumulative` once per distribution, then :func:`draw` /
:func:`draw_distinct` per sample.  That is the draw numpy's weighted
``choice`` makes — after re-validating the weights and rebuilding the
CDF on every call — so the index stream is the one it would produce,
and every generated dataset hangs on it
(``tests/datasets/test_catalog.py`` pins the bytes).

:func:`draw_distinct`'s batch sizes fix the *logical* stream position:
which indexes a call consumes.  Where the indexes come from is the
caller's: :class:`Vocabulary <repro.text.vocabulary.Vocabulary>` draws
each batch from the caller's generator, while a :class:`ZipfSampler`,
the only reader of its own generator, draws :data:`READ_AHEAD` indexes
at a time and hands them out in stream order — the same indexes, a
fraction of the numpy calls.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

__all__ = [
    "READ_AHEAD",
    "ZipfSampler",
    "zipf_probabilities",
    "cumulative",
    "draw",
    "draw_distinct",
]

#: Indexes a :class:`ZipfSampler` draws from its generator in one numpy
#: call.  It sets how often the sampler calls numpy, nothing else: the
#: indexes handed out are the same for any value.
READ_AHEAD = 4096


def zipf_probabilities(n: int, z: float) -> np.ndarray:
    """Normalised Zipf probabilities for ranks ``1..n`` with skew ``z``."""
    if n <= 0:
        raise ValueError("n must be positive")
    if z < 0:
        raise ValueError("Zipf skew must be non-negative")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-z)
    return weights / weights.sum()


def cumulative(probs: np.ndarray) -> np.ndarray:
    """The normalised CDF of ``probs``, for :func:`draw`."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def draw(cdf: np.ndarray, rng: np.random.Generator, size: int) -> List[int]:
    """``size`` indexes distributed by ``cdf``, with replacement."""
    return cdf.searchsorted(rng.random(size), side="right").tolist()


def draw_distinct(
    take: Callable[[int], List[int]], population: int, count: int
) -> List[int]:
    """``count`` distinct indexes (at most all ``population``), ascending.

    ``take(n)`` returns the next ``n`` indexes of a stream over
    ``range(population)``.  Rejection sampling preserves the marginal
    for small draws; batches keep the numpy call count low.  The batch
    sizes decide how much of the stream a call consumes, so changing
    them changes every generated dataset and workload.
    """
    count = min(count, population)
    # Insertion-ordered: truncating keeps the first ``count`` distinct
    # indexes of the stream, what adding one at a time would stop at.
    chosen: dict = {}
    while len(chosen) < count:
        need = count - len(chosen)
        chosen.update(dict.fromkeys(take(max(4, 2 * need))))
    return sorted(list(chosen)[:count])


class ZipfSampler:
    """Seeded sampler of vocabulary terms under a Zipf law.

    ``sample_distinct`` draws a set of *distinct* terms for one object,
    which matches objects carrying keyword *sets* rather than bags.
    Nothing else reads the sampler's generator, so it draws
    :data:`READ_AHEAD` indexes at a time and hands them out in stream
    order: every call returns what drawing on demand would.
    """

    def __init__(self, terms: Sequence[str], z: float, seed: int = 0) -> None:
        if not terms:
            raise ValueError("vocabulary must be non-empty")
        self._terms = list(terms)
        self._cdf = cumulative(zipf_probabilities(len(self._terms), z))
        self._rng = np.random.default_rng(seed)
        self.z = z
        #: Indexes drawn from ``_rng`` and not yet handed out start at
        #: ``_ahead[_next]``.
        self._ahead: List[int] = []
        self._next = 0

    @property
    def vocabulary_size(self) -> int:
        return len(self._terms)

    def _take(self, n: int) -> List[int]:
        """The next ``n`` indexes of the sampler's stream."""
        start, end = self._next, self._next + n
        if end > len(self._ahead):
            rest = self._ahead[start:]
            fresh = max(READ_AHEAD, n - len(rest))
            self._ahead = rest + draw(self._cdf, self._rng, fresh)
            start, end = 0, n
        self._next = end
        return self._ahead[start:end]

    def sample(self, count: int) -> List[str]:
        """Draw ``count`` terms with replacement."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self._terms[i] for i in self._take(count)]

    def sample_distinct(self, count: int) -> List[str]:
        """Draw ``count`` distinct terms (capped at the vocabulary size)."""
        picked = draw_distinct(self._take, len(self._terms), count)
        return [self._terms[i] for i in picked]
