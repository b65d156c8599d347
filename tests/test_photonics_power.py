"""Tests for the Fig 7 peak-power model and the optical price list."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import PhastlaneConfig
from repro.core.network import PhastlaneNetwork
from repro.photonics import constants
from repro.photonics.power import (
    OpticalPowerModel,
    REASONABLE_PEAK_W,
    laser_index,
    optical_prices,
)
from repro.util.geometry import MeshGeometry
from repro.vectorized import VectorizedNetwork


@pytest.fixture(scope="module")
def model() -> OpticalPowerModel:
    return OpticalPowerModel()


class TestPaperAnchors:
    """Section 3.2's quoted operating points."""

    def test_64wdm_4hop_98pct_is_32w(self, model):
        assert model.peak_power_w(64, 4, 0.98) == pytest.approx(32.0, rel=0.02)

    def test_128wdm_5hop_98pct_is_32w(self, model):
        assert model.peak_power_w(128, 5, 0.98) == pytest.approx(32.0, rel=0.02)

    def test_128wdm_4hop_98pct_is_15w(self, model):
        assert model.peak_power_w(128, 4, 0.98) == pytest.approx(15.0, rel=0.02)

    def test_32wdm_needs_high_efficiency_or_short_hops(self, model):
        # "requires either very high crossing efficiency (at least 99%) or a
        # limit on the maximum distance (2-3 hops)"
        assert model.peak_power_w(32, 4, 0.98) > REASONABLE_PEAK_W
        assert model.peak_power_w(32, 2, 0.98) <= REASONABLE_PEAK_W
        assert model.peak_power_w(32, 4, 0.99) <= REASONABLE_PEAK_W


class TestModelShape:
    @given(st.sampled_from([32, 64, 128]), st.integers(1, 7))
    def test_more_hops_needs_more_power(self, model_wdm, hops):
        model = OpticalPowerModel()
        assert model.peak_power_w(model_wdm, hops + 1, 0.98) > model.peak_power_w(
            model_wdm, hops, 0.98
        )

    @given(st.sampled_from([32, 64, 128]), st.integers(1, 8))
    def test_better_efficiency_needs_less_power(self, wdm, hops):
        model = OpticalPowerModel()
        assert model.peak_power_w(wdm, hops, 0.99) < model.peak_power_w(wdm, hops, 0.97)

    def test_perfect_efficiency_is_base_power(self, model):
        assert model.peak_power_w(64, 1, 1.0) == model.peak_power_w(64, 8, 1.0)

    def test_invalid_inputs_rejected(self, model):
        with pytest.raises(ValueError):
            model.peak_power_w(64, 0, 0.98)
        with pytest.raises(ValueError):
            model.peak_power_w(64, 4, 0.0)
        with pytest.raises(ValueError):
            model.peak_power_w(64, 4, 1.5)

    def test_contour_covers_grid(self, model):
        points = model.contour((64,), (1, 2), (0.98, 0.99))
        assert len(points) == 4
        assert all(p.payload_wdm == 64 for p in points)


class TestLaserEnergy:
    def test_energy_grows_with_hops(self, model):
        assert model.transmit_laser_energy_pj(64, 4) > model.transmit_laser_energy_pj(64, 1)

    def test_multicast_taps_cost_extra(self, model):
        base = model.transmit_laser_energy_pj(64, 4)
        tapped = model.transmit_laser_energy_pj(64, 4, multicast_taps=4)
        assert tapped > base
        # Each tap extracts 10%: compensation is (1/0.9)^taps.
        assert tapped / base == pytest.approx((1 / 0.9) ** 4)

    def test_single_transmission_far_below_peak(self, model):
        from repro.photonics.constants import CYCLE_TIME_PS

        energy = model.transmit_laser_energy_pj(64, 4)
        peak_energy = 32.0 * CYCLE_TIME_PS  # whole-network worst case
        assert energy < peak_energy / 100

    def test_invalid_inputs_rejected(self, model):
        with pytest.raises(ValueError):
            model.transmit_laser_energy_pj(64, 0)
        with pytest.raises(ValueError):
            model.transmit_laser_energy_pj(64, 4, multicast_taps=-1)


class TestOpticalPrices:
    """One price per event, shared by both Phastlane simulators."""

    @pytest.mark.parametrize("nodes, hops", [(16, 2), (64, 4), (64, 8), (1024, 5)])
    def test_each_price_is_its_constant_expression(self, nodes, hops):
        prices = optical_prices(nodes, hops)
        c = constants
        assert prices.modulator == (640 + 70) * c.MODULATOR_ENERGY_PJ_PER_BIT
        assert prices.buffer_read == 640 * c.BUFFER_READ_PJ_PER_BIT
        assert prices.buffer_write == 640 * c.BUFFER_WRITE_PJ_PER_BIT
        assert prices.receive_packet == 640 * c.RECEIVER_ENERGY_PJ_PER_BIT
        assert prices.receive_control == 70 * c.RECEIVER_ENERGY_PJ_PER_BIT
        assert prices.drop_signal == 7 * (
            c.MODULATOR_ENERGY_PJ_PER_BIT + c.RECEIVER_ENERGY_PJ_PER_BIT
        )
        assert prices.static == (
            c.OPTICAL_ROUTER_LEAKAGE_MW
            + c.NIC_LEAKAGE_MW
            + c.THERMAL_TUNING_MW_PER_ROUTER
        ) * c.CYCLE_TIME_PS * 1e-3 * nodes

    @pytest.mark.parametrize("nodes, hops", [(16, 2), (64, 4), (64, 8)])
    def test_every_laser_entry_is_the_models_launch_energy(self, nodes, hops):
        laser = optical_prices(nodes, hops).laser
        model = OpticalPowerModel(mesh_nodes=nodes)
        indices = [
            laser_index(segment, taps)
            for segment in range(1, hops + 1)
            for taps in range(segment + 1)
        ]
        assert sorted(indices) == list(range(1, len(laser)))
        for segment in range(1, hops + 1):
            for taps in range(segment + 1):
                assert laser[laser_index(segment, taps)] == (
                    model.transmit_laser_energy_pj(
                        constants.PAYLOAD_WDM,
                        segment,
                        constants.CROSSING_EFFICIENCY,
                        multicast_taps=taps,
                    )
                )

    def test_the_cached_list_cannot_be_mutated(self):
        prices = optical_prices(64, 4)
        assert optical_prices(64, 4) is prices
        with pytest.raises(dataclasses.FrozenInstanceError):
            prices.static = 0.0  # type: ignore[misc]
        with pytest.raises(TypeError):
            prices.laser[1] = 0.0  # type: ignore[index]

    @pytest.mark.parametrize("shape, hops", [((8, 8), 4), ((4, 4), 2)])
    def test_oracle_and_kernel_hold_the_one_list(self, shape, hops):
        config = PhastlaneConfig(
            mesh=MeshGeometry(*shape), max_hops_per_cycle=hops
        )
        oracle, kernel = PhastlaneNetwork(config), VectorizedNetwork(config)
        assert oracle.prices is kernel.prices
        assert kernel.prices is optical_prices(shape[0] * shape[1], hops)
