"""Tests for the bottom-up loss-budget cross-validation model."""

import pytest

from repro.photonics.lossbudget import ComponentLosses, LossBudget
from repro.photonics.power import OpticalPowerModel


@pytest.fixture
def budget() -> LossBudget:
    return LossBudget()


class TestPathLoss:
    def test_loss_grows_with_hops(self, budget):
        assert budget.path_loss_db(64, 4) > budget.path_loss_db(64, 1)

    def test_loss_grows_with_turns(self, budget):
        assert budget.path_loss_db(64, 4, turns=2) > budget.path_loss_db(64, 4, turns=0)

    def test_fewer_waveguides_fewer_crossings(self, budget):
        # 128-WDM halves the waveguide count -> fewer crossings per router,
        # but more ring-through losses; the crossing term dominates.
        assert budget.per_router_loss_db(128) < budget.per_router_loss_db(32)

    def test_crossing_db_matches_efficiency(self):
        budget = LossBudget(crossing_efficiency=0.98)
        assert budget.crossing_db == pytest.approx(0.0877, rel=1e-2)

    def test_invalid_inputs_rejected(self, budget):
        with pytest.raises(ValueError):
            budget.path_loss_db(64, 0)
        with pytest.raises(ValueError):
            budget.path_loss_db(64, 1, turns=-1)
        with pytest.raises(ValueError):
            LossBudget(crossing_efficiency=0.0)


class TestRequiredPower:
    def test_per_wavelength_power_is_microwatts(self, budget):
        power = budget.required_power_per_wavelength_w(64, 4)
        assert 1e-6 < power < 1e-3  # tens to hundreds of microwatts

    def test_network_peak_is_watts(self, budget):
        peak = budget.network_peak_power_w(64, 4)
        assert 5.0 < peak < 100.0

    def test_peak_scales_with_sensitivity_margin(self):
        tight = LossBudget(ComponentLosses(margin_db=0.0))
        loose = LossBudget(ComponentLosses(margin_db=6.0))
        ratio = loose.network_peak_power_w(64, 4) / tight.network_peak_power_w(64, 4)
        assert ratio == pytest.approx(10 ** 0.6, rel=1e-6)


class TestCrossValidation:
    def test_bottom_up_agrees_with_calibrated_model(self):
        """The physical chain and the calibrated Fig 7 model agree at the
        64-wavelength, four-hop, 98%-efficiency anchor within 5x (in fact
        within ~1.6x)."""
        bottom_up = LossBudget().network_peak_power_w(64, 4)
        calibrated = OpticalPowerModel().peak_power_w(64, 4, 0.98)
        assert calibrated == pytest.approx(32.0, rel=0.02)
        ratio = max(bottom_up, calibrated) / min(bottom_up, calibrated)
        assert ratio < 2.0


#: Both laser models at 98 % crossing efficiency, in watts, as
#: ``(wavelengths, hops): (chain, calibrated)``: the bottom-up chain scaled
#: to the calibrated model's 32 W anchor, and the calibrated Fig 7
#: exponential.  They meet at the anchor and near it at 128 wavelengths and
#: 5 hops; elsewhere they part by up to 11x, the chain rising far more
#: slowly with hops and with fewer wavelengths.
BOTH_MODELS_W = {
    (64, 4): (32.0, 32.0),
    (128, 5): (36.8, 32.1),
    (128, 4): (27.0, 15.0),
    (32, 4): (63.8, 347.1),
    (64, 8): (129.3, 1418.5),
}


@pytest.mark.parametrize(
    "point", BOTH_MODELS_W, ids=lambda point: f"{point[0]}wl-{point[1]}hops"
)
def test_both_laser_models_on_the_fig7_grid(point):
    chain_w, calibrated_w = BOTH_MODELS_W[point]
    budget = LossBudget()
    to_anchor = 32.0 / budget.network_peak_power_w(64, 4)
    chain = budget.network_peak_power_w(*point) * to_anchor
    assert chain == pytest.approx(chain_w, abs=0.05)
    calibrated = OpticalPowerModel().peak_power_w(*point, 0.98)
    assert calibrated == pytest.approx(calibrated_w, abs=0.05)
