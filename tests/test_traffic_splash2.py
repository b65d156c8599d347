"""Tests for the SPLASH2 trace substrate."""

import hashlib

import pytest

from repro.harness.experiments.tables import CACHE_CONFIGURATION, SPLASH2_INPUT_SETS
from repro.traffic.splash2 import (
    SPLASH2_ORDER,
    SPLASH2_PROFILES,
    Splash2Profile,
    generate_splash2_trace,
)
from repro.traffic.coherence import CoherenceMessageMix
from repro.util.geometry import MeshGeometry


class TestTables:
    def test_table3_has_ten_benchmarks(self):
        assert len(SPLASH2_INPUT_SETS) == 10
        assert SPLASH2_INPUT_SETS["ocean"] == "2050x2050 grid"
        assert SPLASH2_INPUT_SETS["radix"] == "64 M integers"

    def test_profiles_cover_table3(self):
        assert set(SPLASH2_PROFILES) == set(SPLASH2_INPUT_SETS)
        assert set(SPLASH2_ORDER) == set(SPLASH2_PROFILES)

    def test_table4_cache_parameters(self):
        assert CACHE_CONFIGURATION["memory_latency"] == "80 cycles"
        assert "32KB L1I" in CACHE_CONFIGURATION["simulated_cache_sizes"]


class TestProfiles:
    def test_burst_rate_consistency(self):
        for profile in SPLASH2_PROFILES.values():
            duty = profile.burst_length / (profile.burst_length + profile.gap_length)
            assert profile.burst_rate * duty == pytest.approx(profile.mean_rate)

    def test_buffer_sensitive_benchmarks_are_heaviest(self):
        # Ocean and FMM drive the drop-sensitivity findings of section 5.
        heavy = {"ocean", "fmm"}
        for name in heavy:
            for other in set(SPLASH2_PROFILES) - heavy - {"barnes", "cholesky"}:
                assert (
                    SPLASH2_PROFILES[name].mean_rate
                    > SPLASH2_PROFILES[other].mean_rate
                )

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            Splash2Profile(
                name="bad",
                mean_rate=0.0,
                burst_length=1.0,
                gap_length=0.0,
                pattern_mix={"uniform": 1.0},
                coherence=CoherenceMessageMix(),
            )
        with pytest.raises(ValueError):
            Splash2Profile(
                name="bad",
                mean_rate=0.9,
                burst_length=10.0,
                gap_length=90.0,  # duty 0.1 cannot reach 0.9 mean
                pattern_mix={"uniform": 1.0},
                coherence=CoherenceMessageMix(),
            )


class TestGeneration:
    def test_deterministic_for_seed(self):
        a = generate_splash2_trace("fft", seed=3, duration_cycles=300)
        b = generate_splash2_trace("fft", seed=3, duration_cycles=300)
        assert list(a) == list(b)

    def test_different_seeds_differ(self):
        a = generate_splash2_trace("fft", seed=3, duration_cycles=300)
        b = generate_splash2_trace("fft", seed=4, duration_cycles=300)
        assert list(a) != list(b)

    def test_load_approximates_profile(self):
        profile = SPLASH2_PROFILES["radix"]
        trace = generate_splash2_trace("radix", duration_cycles=2000)
        assert trace.offered_load() == pytest.approx(profile.mean_rate, rel=0.15)

    def test_broadcast_fraction_approximates_mix(self):
        profile = SPLASH2_PROFILES["ocean"]
        trace = generate_splash2_trace("ocean", duration_cycles=2000)
        fraction = trace.broadcast_count / len(trace)
        assert fraction == pytest.approx(profile.coherence.broadcast_fraction, rel=0.25)

    def test_no_self_traffic(self):
        trace = generate_splash2_trace("lu", duration_cycles=400)
        assert all(e.destination != e.source for e in trace if not e.is_broadcast)

    def test_respects_mesh(self):
        mesh = MeshGeometry(4, 4)
        trace = generate_splash2_trace("water-spatial", mesh=mesh, duration_cycles=400)
        assert trace.num_nodes == 16
        assert all(e.source < 16 for e in trace)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown SPLASH2"):
            generate_splash2_trace("linpack", duration_cycles=100)

    def test_duration_override(self):
        trace = generate_splash2_trace("fft", duration_cycles=123)
        assert trace.last_cycle < 123


#: sha256 of the saved ``generate_splash2_trace(b, seed=1,
#: duration_cycles=300)`` trace, per profile: Raytrace's bursty injector,
#: the hotspot mixes and the memory-controller share included.
TRACE_SHA256 = {
    "barnes": "1a2c215f4d1ea993febd3f4f110705c0c47f0bae2df5dba7b92153c9ca4cc317",
    "cholesky": "c3b2ffe0f67e97e0d43e347eff37cfa13954949e171eceed5d6f62a4a1dfe719",
    "fft": "15c4dee128111f2bef1cf10be3746b3e4f55d51e5ee144b4af7c9018bde2e5f8",
    "lu": "4333f2570d5ab5e705328439431cd5abb3385235d503c57e91ead0f5a6cc2d25",
    "ocean": "469202d66aebeb3e3336670a05455dbd7668125e2207b657d36228aec62be85d",
    "radix": "23ba1434f6292d73b7db67ef44f7f65667f87990bad4a0ec124affd307a4c31d",
    "raytrace": "844079160dabccd1be9ba0229ad223b1201f210991c37a883df8823198f7f941",
    "water-nsquared": "caed275f6f0afa9376f1cd12a70209081dd8fdf7b963dd38fb974a0ca1259291",
    "water-spatial": "f0785edc86f122a96aa4bde60622f5ec22ca818de46db84ce4db1611d06a2a73",
    "fmm": "c48aef57e4313d4c7ff4cb0e98e2220e023a3b5ade4097bae6d8bddeefcd576a",
}


@pytest.mark.parametrize("profile", SPLASH2_ORDER)
def test_trace_bytes_are_pinned(tmp_path, profile):
    path = tmp_path / f"{profile}.trace"
    generate_splash2_trace(profile, seed=1, duration_cycles=300).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_SHA256[profile]
