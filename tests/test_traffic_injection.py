"""Tests for the injection processes."""

import pytest

from repro.sim.rng import DeterministicRng
from repro.traffic.injection import BernoulliInjector, BurstyInjector


def measure_rate(injector, cycles=20_000, label="inj"):
    rng = DeterministicRng(5, label)
    return sum(injector.should_inject(c, rng) for c in range(cycles)) / cycles


class TestBernoulli:
    def test_empirical_rate(self):
        assert measure_rate(BernoulliInjector(0.2)) == pytest.approx(0.2, abs=0.02)

    def test_extremes(self):
        assert measure_rate(BernoulliInjector(0.0), 500) == 0.0
        assert measure_rate(BernoulliInjector(1.0), 500) == 1.0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            BernoulliInjector(1.1)
        with pytest.raises(ValueError):
            BernoulliInjector(-0.1)


class TestBursty:
    def test_mean_rate_formula(self):
        """The long-run rate is ``burst_rate * burst_length / (burst_length +
        gap_length)``: the on-state rate times the duty cycle."""
        injector = BurstyInjector(burst_rate=0.6, burst_length=30, gap_length=70)
        assert measure_rate(injector, 60_000) == pytest.approx(0.6 * 30 / 100, rel=0.15)

    def test_empirical_rate_matches_mean(self):
        injector = BurstyInjector(burst_rate=0.5, burst_length=40, gap_length=60)
        assert measure_rate(injector, 60_000) == pytest.approx(0.5 * 40 / 100, rel=0.15)

    def test_burstiness_visible(self):
        """Injections cluster: variance of per-window counts beats Bernoulli."""
        injector = BurstyInjector(burst_rate=0.9, burst_length=50, gap_length=150)
        rng = DeterministicRng(5, "burst")
        window, counts, current = 50, [], 0
        for cycle in range(20_000):
            current += injector.should_inject(cycle, rng)
            if cycle % window == window - 1:
                counts.append(current)
                current = 0
        mean = sum(counts) / len(counts)
        variance = sum((c - mean) ** 2 for c in counts) / len(counts)
        assert variance > 2 * mean  # Poisson-ish traffic would have var ~ mean

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BurstyInjector(0.0, 10, 10)
        with pytest.raises(ValueError):
            BurstyInjector(0.5, 0, 10)
        with pytest.raises(ValueError):
            BurstyInjector(0.5, 10, -1)

