"""Tests for deterministic RNG streams."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.rng import DeterministicRng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(42, "x")
        b = DeterministicRng(42, "x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_streams_diverge(self):
        a = DeterministicRng(42, "x")
        b = DeterministicRng(42, "y")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_diverge(self):
        a = DeterministicRng(1, "x")
        b = DeterministicRng(2, "x")
        assert a.random() != b.random()



class TestDistributions:
    def test_bernoulli_extremes(self):
        rng = DeterministicRng(1)
        assert not any(rng.bernoulli(0.0) for _ in range(100))
        assert all(rng.bernoulli(1.0) for _ in range(100))

    def test_bernoulli_rate(self):
        rng = DeterministicRng(1, "rate")
        hits = sum(rng.bernoulli(0.3) for _ in range(20_000))
        assert 0.27 < hits / 20_000 < 0.33

    def test_bernoulli_rejects_out_of_range(self):
        rng = DeterministicRng(1)
        with pytest.raises(ValueError):
            rng.bernoulli(1.5)

    def test_geometric_mean(self):
        rng = DeterministicRng(3, "geo")
        samples = [rng.geometric(0.25) for _ in range(5_000)]
        mean = sum(samples) / len(samples)
        assert 2.6 < mean < 3.4  # E = (1-p)/p = 3

    def test_geometric_rejects_zero(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).geometric(0.0)

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_reproducible_for_any_label(self, seed, stream):
        assert (
            DeterministicRng(seed, stream).random()
            == DeterministicRng(seed, stream).random()
        )
