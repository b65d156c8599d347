"""Tests for the Fig 7 peak-power model and laser energy accounting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.photonics.power import (
    OpticalPowerModel,
    REASONABLE_PEAK_W,
)


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
