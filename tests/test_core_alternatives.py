"""Tests for the one design alternative ``PhastlaneConfig`` carries, on
the reference: round-robin network arbitration (paper footnote 3).  That
the kernel runs it bit for bit is ``test_differential.py``'s business; the
section 7 "future work" knobs are gone and their keyword arguments with
them."""

import pytest

from oracle.network import PhastlaneNetwork
from repro.core.config import PhastlaneConfig
from repro.traffic.injection import BernoulliInjector
from repro.traffic.patterns import pattern_by_name
from repro.traffic.trace import SyntheticSource
from repro.util.geometry import MeshGeometry

from helpers import drain

MESH = MeshGeometry(8, 8)


def run_synthetic_with(config, rate=0.3, cycles=400, pattern="transpose", seed=5):
    source = SyntheticSource(
        pattern_by_name(pattern, MESH),
        lambda: BernoulliInjector(rate),
        seed=seed,
        stop_cycle=cycles,
    )
    network = PhastlaneNetwork(config, source)
    drain(network, cycles, 100_000)
    return network


class TestConfigValidation:
    def test_unknown_options_rejected(self):
        with pytest.raises(ValueError):
            PhastlaneConfig(network_arbitration="priority-lottery")
        for retired in (
            {"buffer_arbitration": "rotating"},
            {"contention_policy": "deflect"},
            {"buffer_sharing": True},
        ):
            with pytest.raises(TypeError, match="unexpected keyword"):
                PhastlaneConfig(**retired)

    def test_defaults_are_paper_choices(self):
        assert PhastlaneConfig().network_arbitration == "fixed"


class TestRoundRobinArbitration:
    """Paper footnote 3: round-robin gives no performance advantage."""

    def test_everything_still_delivered(self):
        config = PhastlaneConfig(mesh=MESH, network_arbitration="round_robin")
        network = run_synthetic_with(config)
        assert network.stats.delivery_ratio == 1.0

    def test_performance_close_to_fixed_priority(self):
        fixed = run_synthetic_with(PhastlaneConfig(mesh=MESH))
        rr = run_synthetic_with(
            PhastlaneConfig(mesh=MESH, network_arbitration="round_robin")
        )
        ratio = rr.stats.mean_latency / fixed.stats.mean_latency
        assert 0.7 < ratio < 1.3

    def test_rotating_pointer_state_created(self):
        config = PhastlaneConfig(mesh=MESH, network_arbitration="round_robin")
        network = run_synthetic_with(config, rate=0.4)
        assert network._rr_pointers  # contention occurred and rotated
