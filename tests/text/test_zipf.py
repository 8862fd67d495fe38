"""Tests for the Zipf sampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import zipf
from repro.text.vocabulary import Vocabulary
from repro.text.zipf import READ_AHEAD, ZipfSampler, zipf_probabilities


class TestProbabilities:
    def test_normalised(self):
        p = zipf_probabilities(100, 1.1)
        assert p.sum() == pytest.approx(1.0)
        assert (p > 0).all()

    def test_monotone_decreasing(self):
        p = zipf_probabilities(50, 1.0)
        assert (np.diff(p) < 0).all()

    def test_zero_skew_is_uniform(self):
        p = zipf_probabilities(10, 0.0)
        assert np.allclose(p, 0.1)

    def test_higher_skew_concentrates_mass(self):
        low = zipf_probabilities(100, 0.9)
        high = zipf_probabilities(100, 1.3)
        assert high[0] > low[0]
        assert high[:5].sum() > low[:5].sum()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0, 1.0)
        with pytest.raises(ValueError):
            zipf_probabilities(10, -0.5)


class TestSampler:
    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            ZipfSampler([], z=1.0)

    def test_sample_counts(self):
        s = ZipfSampler([f"t{i}" for i in range(20)], z=1.0, seed=0)
        assert len(s.sample(7)) == 7
        assert s.vocabulary_size == 20

    def test_negative_count_rejected(self):
        s = ZipfSampler([f"t{i}" for i in range(20)], z=1.0, seed=0)
        with pytest.raises(ValueError):
            s.sample(-1)
        # Refused without moving the stream.
        fresh = ZipfSampler([f"t{i}" for i in range(20)], z=1.0, seed=0)
        assert s.sample(5) == fresh.sample(5)

    def test_sample_distinct_unique(self):
        s = ZipfSampler([f"t{i}" for i in range(20)], z=1.1, seed=1)
        got = s.sample_distinct(8)
        assert len(got) == len(set(got)) == 8

    def test_sample_distinct_capped_at_vocab(self):
        s = ZipfSampler(["a", "b", "c"], z=1.0, seed=2)
        assert sorted(s.sample_distinct(10)) == ["a", "b", "c"]

    def test_determinism_per_seed(self):
        a = ZipfSampler([f"t{i}" for i in range(30)], z=1.0, seed=5)
        b = ZipfSampler([f"t{i}" for i in range(30)], z=1.0, seed=5)
        assert a.sample(20) == b.sample(20)

    def test_skew_shows_in_samples(self):
        s = ZipfSampler([f"t{i}" for i in range(100)], z=1.3, seed=3)
        draws = s.sample(3000)
        top = draws.count("t0")
        tail = draws.count("t99")
        assert top > 50 * max(tail, 1)


# ----------------------------------------------------------------------
# The sampling the generated datasets were recorded with, kept here as
# the reference: numpy's weighted ``Generator.choice`` per batch, one
# index added at a time.  ``repro.text`` must consume the generator's
# stream exactly as this does, or every dataset digest, golden and
# recorded page count moves.
# ----------------------------------------------------------------------
def choice_with_replacement(rng, probs, count):
    return [int(i) for i in rng.choice(len(probs), size=count, p=probs)]


def choice_distinct(rng, probs, count):
    count = min(count, len(probs))
    chosen = set()
    while len(chosen) < count:
        need = count - len(chosen)
        batch = rng.choice(len(probs), size=max(4, 2 * need), p=probs)
        for i in batch:
            chosen.add(int(i))
            if len(chosen) == count:
                break
    return sorted(chosen)


@st.composite
def draw_sequences(draw):
    """(vocabulary size, seed, [(distinct?, count), ...]): counts cover
    0, 1, the whole vocabulary and more than it."""
    size = draw(st.integers(1, 60))
    count = st.one_of(
        st.sampled_from([0, 1, size, size + 1, 2 * size + 3]),
        st.integers(0, size + 5),
    )
    calls = draw(st.lists(st.tuples(st.booleans(), count), min_size=1, max_size=12))
    return size, draw(st.integers(0, 2**32 - 1)), calls


class TestSameStreamAsChoice:
    @given(draw_sequences(), st.floats(0.0, 2.0))
    @settings(max_examples=300, deadline=None)
    def test_sampler_call_after_call(self, sequence, z):
        size, seed, calls = sequence
        terms = [f"t{i}" for i in range(size)]
        sampler = ZipfSampler(terms, z=z, seed=seed)
        rng = np.random.default_rng(seed)
        probs = zipf_probabilities(size, z)
        for distinct, count in calls:
            # Comparing every call compares the stream position too.
            if distinct:
                expected = choice_distinct(rng, probs, count)
                got = sampler.sample_distinct(count)
            else:
                expected = choice_with_replacement(rng, probs, count)
                got = sampler.sample(count)
            assert got == [terms[i] for i in expected]

    @given(draw_sequences(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_vocabulary_call_after_call(self, sequence, data):
        size, seed, calls = sequence
        freqs = data.draw(st.lists(st.integers(1, 50), min_size=size, max_size=size))
        vocab = Vocabulary({f"t{i}": f for i, f in enumerate(freqs)})
        terms = list(vocab.terms)
        probs = np.array([vocab.frequency(t) for t in terms], dtype=np.float64)
        probs /= probs.sum()
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _distinct, count in calls:
            expected = choice_distinct(theirs, probs, count)
            got = vocab.sample_terms(count, ours)
            assert got == [terms[i] for i in expected]


class TestReadAheadRefill:
    def test_same_stream_across_many_blocks(self, monkeypatch):
        """SYN's shape — 15 distinct terms from a 25-term topic pool,
        thousands of times — then one draw longer than a block: the
        sampler refills its read-ahead again and again, and hands out
        what the reference draws, call by call."""
        draws = []
        real_draw = zipf.draw

        def counted(cdf, rng, size):
            draws.append(size)
            return real_draw(cdf, rng, size)

        monkeypatch.setattr(zipf, "draw", counted)
        terms = [f"t{i}" for i in range(25)]
        sampler = ZipfSampler(terms, z=1.1, seed=54)
        rng = np.random.default_rng(54)
        probs = zipf_probabilities(len(terms), 1.1)
        for _ in range(2000):
            expected = choice_distinct(rng, probs, 15)
            assert sampler.sample_distinct(15) == [terms[i] for i in expected]
        expected = choice_with_replacement(rng, probs, 10_000)
        assert sampler.sample(10_000) == [terms[i] for i in expected]
        for _ in range(50):
            expected = choice_distinct(rng, probs, 15)
            assert sampler.sample_distinct(15) == [terms[i] for i in expected]
        assert len(draws) >= 10
        assert draws.count(READ_AHEAD) >= 9
        assert max(draws) > READ_AHEAD  # the long draw, in one refill
