"""Vocabulary with term frequencies and frequency-weighted sampling.

The paper's workload chooses query keywords with probability
proportional to their dataset term frequency (§5, "the likelihood of a
keyword t being chosen as query keyword is freq(t) / Σ freq(t')"); the
on-the-fly query logs of §3.3 Remark 1 use the same principle per edge.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .zipf import cumulative, draw, draw_distinct

__all__ = ["Vocabulary", "make_term_names"]


def make_term_names(count: int) -> List[str]:
    """Generate ``count`` synthetic term names ``t0, t1, ...``."""
    if count <= 0:
        raise ValueError("count must be positive")
    return [f"t{i}" for i in range(count)]


class Vocabulary:
    """An immutable term catalogue with frequencies.

    Built either from explicit frequencies or counted from a corpus of
    keyword sets.  Provides frequency-weighted sampling used by the
    workload generator and the query-log models.
    """

    def __init__(self, frequencies: Mapping[str, int]) -> None:
        if not frequencies:
            raise ValueError("vocabulary must contain at least one term")
        items = sorted(frequencies.items(), key=lambda kv: (-kv[1], kv[0]))
        self._terms: List[str] = [t for t, _ in items]
        self._freqs: np.ndarray = np.array([f for _, f in items], dtype=np.float64)
        if (self._freqs <= 0).any():
            raise ValueError("term frequencies must be positive")
        self._index: Dict[str, int] = {t: i for i, t in enumerate(self._terms)}
        self._cdf = cumulative(self._freqs / self._freqs.sum())

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: str) -> bool:
        return term in self._index

    @property
    def terms(self) -> Sequence[str]:
        """Terms ordered by decreasing frequency (rank order)."""
        return tuple(self._terms)

    def frequency(self, term: str) -> int:
        return int(self._freqs[self._index[term]])

    def sample_terms(self, count: int, rng: np.random.Generator) -> List[str]:
        """Frequency-weighted sample of ``count`` distinct terms (all of
        them when ``count`` exceeds the vocabulary)."""
        take = partial(draw, self._cdf, rng)
        picked = draw_distinct(take, len(self._terms), count)
        return [self._terms[i] for i in picked]

    def items(self) -> Iterable[Tuple[str, int]]:
        for i, t in enumerate(self._terms):
            yield t, int(self._freqs[i])
