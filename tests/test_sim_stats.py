"""Tests for the statistics ledger."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import percentile
from repro.sim.stats import Histogram, NetworkStats, RunningMean, SaturationError


class TestRunningMean:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1))
    def test_matches_direct_mean(self, values):
        mean = RunningMean()
        for value in values:
            mean.add(value)
        assert mean.mean == pytest.approx(sum(values) / len(values), rel=1e-9, abs=1e-9)
        assert mean.min == min(values)
        assert mean.max == max(values)
        assert mean.count == len(values)

    def test_total(self):
        mean = RunningMean()
        for v in (1.0, 2.0, 3.0):
            mean.add(v)
        assert mean.total == pytest.approx(6.0)

    def test_empty_stream_extremes_are_sentinels(self):
        # An empty stream keeps the identity sentinels: min is +inf and
        # max is -inf, so min > max flags "no samples" unambiguously.
        mean = RunningMean()
        assert mean.count == 0
        assert mean.min == float("inf")
        assert mean.max == float("-inf")
        assert mean.min > mean.max

    def test_single_value_stream_collapses_extremes(self):
        mean = RunningMean()
        mean.add(7.5)
        assert mean.count == 1
        assert mean.min == 7.5
        assert mean.max == 7.5
        assert mean.mean == 7.5
        assert mean.total == 7.5


class TestHistogram:
    def test_percentiles(self):
        hist = Histogram()
        for v in range(1, 101):
            hist.add(v)
        assert percentile(hist, 50) == 50
        assert percentile(hist, 99) == 99
        assert percentile(hist, 100) == 100

    def test_empty_percentile_rejected(self):
        with pytest.raises(ValueError):
            percentile(Histogram(), 50)

    def test_invalid_percentile_rejected(self):
        hist = Histogram()
        hist.add(1)
        with pytest.raises(ValueError):
            percentile(hist, 0)
        with pytest.raises(ValueError):
            percentile(hist, 101)

    def test_single_bucket_answers_every_percentile(self):
        hist = Histogram()
        for _ in range(5):
            hist.add(42)
        for p in (0.1, 1, 50, 99, 100):
            assert percentile(hist, p) == 42

    def test_p100_is_the_maximum_bucket(self):
        hist = Histogram()
        hist.add(1)
        hist.add(1)
        hist.add(1000)
        assert percentile(hist, 100) == 1000

    def test_fractional_values_truncate_into_buckets(self):
        # Buckets are int(value): 3.2 and 3.9 share bucket 3, so every
        # percentile of this histogram reads back the truncated value.
        hist = Histogram()
        hist.add(3.2)
        hist.add(3.9)
        assert hist.items() == [(3, 2)]
        assert percentile(hist, 50) == 3
        assert percentile(hist, 100) == 3

    def test_tiny_percentile_still_returns_a_bucket(self):
        # target rounds to 0 for small p; the max(1, ...) floor keeps the
        # answer at the smallest bucket rather than an empty scan.
        hist = Histogram()
        hist.add(5)
        hist.add(9)
        assert percentile(hist, 0.001) == 5


class TestNetworkStats:
    def test_latency_counts_delivery_cycle(self):
        stats = NetworkStats()
        stats.record_delivered(10, 10)
        assert stats.mean_latency == 1.0  # same-cycle delivery = 1 cycle

    def test_warmup_excludes_early_packets(self):
        stats = NetworkStats(measurement_start=100)
        stats.record_delivered(50, 60)  # warm-up, excluded from latency
        stats.record_delivered(150, 160)
        assert stats.latency.mean.count == 1
        assert stats.packets_delivered == 2

    def test_delivery_before_generation_rejected(self):
        stats = NetworkStats()
        with pytest.raises(ValueError):
            stats.record_delivered(10, 5)

    def test_mean_latency_on_empty_raises_saturation(self):
        with pytest.raises(SaturationError):
            NetworkStats().mean_latency

    def test_delivery_ratio(self):
        stats = NetworkStats()
        for _ in range(4):
            stats.record_generated(0)
        stats.record_delivered(0, 1)
        assert stats.delivery_ratio == 0.25

    def test_average_power(self):
        stats = NetworkStats()
        stats.energy_pj["laser"] += 1000.0  # 1000 pJ
        stats.final_cycle = 4  # 4 * 250 ps = 1 ns
        assert stats.average_power_w(250.0) == pytest.approx(1.0)

    def test_throughput_over_window(self):
        stats = NetworkStats(measurement_start=100)
        stats.final_cycle = 200
        for _ in range(50):
            stats.record_delivered(150, 160)
        assert stats.throughput(num_nodes=10) == pytest.approx(50 / (100 * 10))

    def test_multicast_counted(self):
        stats = NetworkStats()
        stats.record_generated(0, multicast=True)
        assert stats.multicast_packets == 1
