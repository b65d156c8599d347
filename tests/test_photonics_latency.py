"""Tests for the Fig 5/6 critical-path and hops-per-cycle models."""

import pytest

from repro.harness.experiments import fig05, fig06
from repro.photonics import constants
from repro.photonics.latency import RouterLatencyModel, max_hops_per_cycle

PAPER_HOPS = {"optimistic": 8, "average": 5, "pessimistic": 4}


class TestFigure6:
    """The headline Fig 6 result: 8/5/4 hops, independent of WDM degree."""

    @pytest.mark.parametrize("scenario,expected", sorted(PAPER_HOPS.items()))
    def test_paper_hop_counts(self, scenario, expected):
        assert max_hops_per_cycle(scenario, constants.PAYLOAD_WDM) == expected

    @pytest.mark.parametrize("wdm", [32, 64, 128])
    def test_wdm_independence(self, wdm):
        for scenario, expected in PAPER_HOPS.items():
            assert max_hops_per_cycle(scenario, wdm) == expected

    def test_figure6_matrix(self):
        hops = fig06.compute().hops
        for scenario, expected in PAPER_HOPS.items():
            assert set(hops[scenario].values()) == {expected}

    def test_longer_cycle_allows_more_hops(self, monkeypatch):
        model = RouterLatencyModel("average")
        at_4ghz = model.max_hops_per_cycle()
        monkeypatch.setattr(constants, "CYCLE_TIME_PS", 500.0)
        assert model.max_hops_per_cycle() > at_4ghz


class TestFigure5:
    """Orderings the paper reports for the critical paths (section 3.1)."""

    @pytest.mark.parametrize("scenario", constants.SCALING_SCENARIOS)
    def test_pass_exceeds_block(self, scenario):
        paths = RouterLatencyModel(scenario).critical_paths()
        assert paths.packet_pass_ps > paths.packet_block_ps

    @pytest.mark.parametrize("scenario", constants.SCALING_SCENARIOS)
    def test_accept_is_fastest(self, scenario):
        paths = RouterLatencyModel(scenario).critical_paths()
        assert paths.packet_accept_ps < paths.packet_block_ps
        assert paths.packet_accept_ps < paths.packet_interim_accept_ps

    @pytest.mark.parametrize("scenario", ["average", "pessimistic"])
    def test_resonator_drive_dominates(self, scenario):
        # "most of the delay involves driving the resonators"
        model = RouterLatencyModel(scenario)
        breakdown = model.packet_pass_breakdown()
        assert breakdown.drive_resonators_ps > 0.5 * breakdown.total_ps

    def test_wavelengths_have_little_impact(self):
        # Fig 5: "the number of wavelengths has little impact on delay".
        pp32 = RouterLatencyModel("average", 32).critical_paths().packet_pass_ps
        pp128 = RouterLatencyModel("average", 128).critical_paths().packet_pass_ps
        assert abs(pp128 - pp32) / pp32 < 0.01

    def test_figure5_covers_all_combinations(self):
        delays = fig05.compute().delays
        assert len(delays) == 9
        assert {(d.scenario, d.payload_wdm) for d in delays} == {
            (s, w) for s in constants.SCALING_SCENARIOS for w in (32, 64, 128)
        }


class TestNetworkPathDelay:
    def test_x_plus_one_link_structure(self):
        # X routers between source and dest = X packet passes, X+1 links.
        model = RouterLatencyModel("average")
        one_hop = model.network_path_delay_ps(1)
        two_hop = model.network_path_delay_ps(2)
        pp = model.packet_pass_breakdown().total_ps
        link = constants.HOP_LENGTH_MM * constants.WAVEGUIDE_DELAY_PS_PER_MM
        assert two_hop - one_hop == pytest.approx(pp + link)

    def test_max_hops_fits_cycle_but_one_more_does_not(self):
        for scenario in constants.SCALING_SCENARIOS:
            model = RouterLatencyModel(scenario)
            hops = model.max_hops_per_cycle()
            assert model.network_path_delay_ps(hops) <= constants.CYCLE_TIME_PS
            assert model.network_path_delay_ps(hops + 1) > constants.CYCLE_TIME_PS

    def test_zero_hops_rejected(self):
        with pytest.raises(ValueError):
            RouterLatencyModel("average").network_path_delay_ps(0)

    def test_accepts_scenario_object(self):
        from repro.photonics.latency import scenario_delays

        model = RouterLatencyModel(scenario_delays("optimistic"))
        assert model.max_hops_per_cycle() == 8

    @pytest.mark.parametrize(
        "name,hops,delay_ps",
        [("mesh", 14, 625.1182378425137), ("torus", 2, 134.03263938357537)],
    )
    def test_corner_to_corner_topology_delay_is_pinned(self, name, hops, delay_ps):
        """Node 0 -> 63 on 8x8, the numbers ``examples/topology_compare.py``
        prints: the dimension-order route is a minimal one, and the folded
        torus pays two pitches per link."""
        from repro.topology.registry import topology_for
        from repro.util.geometry import MeshGeometry

        topology = topology_for(name, MeshGeometry(8, 8))
        model = RouterLatencyModel("average")
        assert topology.hop_count(0, 63) == hops
        assert model.topology_path_delay_ps(topology, 0, 63) == delay_ps
        with pytest.raises(ValueError, match="distinct endpoints"):
            model.topology_path_delay_ps(topology, 5, 5)


class TestRoundRobinArbitrationLatency:
    """Footnote 3: round-robin 'increases crossbar latency'."""

    @pytest.mark.parametrize("scenario", constants.SCALING_SCENARIOS)
    def test_round_robin_slows_packet_pass(self, scenario):
        fixed = RouterLatencyModel(scenario)
        rr = RouterLatencyModel(scenario, round_robin_arbitration=True)
        extra = constants.RESONATOR_DRIVE_DELAY_PS[scenario]
        assert rr.critical_paths().packet_pass_ps == pytest.approx(
            fixed.critical_paths().packet_pass_ps + extra
        )

    def test_round_robin_costs_hops(self):
        # The extra drive stage shrinks the per-cycle hop budget for the
        # average and pessimistic scenarios — the reason the paper keeps
        # fixed priority despite its unfairness.
        for scenario in ("average", "pessimistic"):
            fixed = RouterLatencyModel(scenario).max_hops_per_cycle()
            rr = RouterLatencyModel(
                scenario, round_robin_arbitration=True
            ).max_hops_per_cycle()
            assert rr < fixed, scenario

    def test_accept_path_unaffected(self):
        fixed = RouterLatencyModel("average")
        rr = RouterLatencyModel("average", round_robin_arbitration=True)
        assert (
            rr.critical_paths().packet_accept_ps
            == fixed.critical_paths().packet_accept_ps
        )
