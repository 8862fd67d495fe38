"""Tests for vocabulary and frequency-weighted sampling."""

import numpy as np
import pytest

from repro.text.vocabulary import Vocabulary, make_term_names


class TestMakeTermNames:
    def test_names(self):
        assert make_term_names(3) == ["t0", "t1", "t2"]
        assert make_term_names(2, prefix="kw") == ["kw0", "kw1"]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            make_term_names(0)


class TestVocabulary:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary({})

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary({"a": 0})

    def test_rank_order(self):
        v = Vocabulary({"rare": 1, "common": 10, "mid": 5})
        assert list(v.terms) == ["common", "mid", "rare"]

    def test_frequency_and_probability(self):
        v = Vocabulary({"a": 3, "b": 1})
        assert v.frequency("a") == 3
        assert "a" in v and "z" not in v
        assert len(v) == 2

    def test_from_corpus(self):
        v = Vocabulary.from_corpus([{"a", "b"}, {"a"}, {"a", "c"}])
        assert v.frequency("a") == 3
        assert v.frequency("b") == 1

    def test_items(self):
        v = Vocabulary({"a": 2, "b": 1})
        assert list(v.items()) == [("a", 2), ("b", 1)]

    def test_sampling_is_frequency_biased(self):
        v = Vocabulary({"hot": 1000, "cold": 1})
        rng = np.random.default_rng(0)
        draws = [v.sample_terms(1, rng)[0] for _ in range(200)]
        assert draws.count("hot") > 180

    def test_sample_distinct(self):
        v = Vocabulary({f"t{i}": i + 1 for i in range(10)})
        rng = np.random.default_rng(1)
        terms = v.sample_terms(5, rng)
        assert len(terms) == len(set(terms)) == 5

    def test_sample_more_than_vocab(self):
        v = Vocabulary({"a": 1, "b": 2})
        rng = np.random.default_rng(2)
        assert sorted(v.sample_terms(10, rng)) == ["a", "b"]

    def test_sample_with_replacement(self):
        v = Vocabulary({"a": 1})
        rng = np.random.default_rng(3)
        assert v.sample_terms(3, rng, distinct=False) == ["a", "a", "a"]
