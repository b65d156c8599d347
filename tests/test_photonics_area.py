"""Tests for the Fig 8 area model."""

import pytest

from repro.harness.experiments import fig08
from repro.photonics import constants
from repro.photonics.area import RouterAreaModel


@pytest.fixture(scope="module")
def model() -> RouterAreaModel:
    return RouterAreaModel()


class TestSweetSpot:
    def test_sweet_spot_is_64(self, model):
        assert model.sweet_spot((16, 24, 32, 48, 64, 96, 128, 192, 256)) == 64

    def test_64wdm_matches_single_core_node(self, model):
        assert model.area_mm2(64) == pytest.approx(
            constants.NODE_AREA_SINGLE_CORE_MM2, rel=0.02
        )


class TestAreaComponents:
    def test_port_side_grows_linearly_with_wdm(self, model):
        b32, b64 = model.breakdown(32), model.breakdown(64)
        assert b64.port_side_um == pytest.approx(2 * b32.port_side_um)

    def test_waveguide_side_shrinks_with_wdm(self, model):
        b32, b64, b128 = (model.breakdown(w) for w in (32, 64, 128))
        assert b32.waveguide_side_um > b64.waveguide_side_um > b128.waveguide_side_um

    def test_total_is_sum_of_components(self, model):
        breakdown = model.breakdown(64)
        assert breakdown.side_um == pytest.approx(
            breakdown.waveguide_side_um
            + breakdown.port_side_um
            + breakdown.base_side_um
        )

    def test_area_is_side_squared(self, model):
        breakdown = model.breakdown(48)
        assert breakdown.total_area_mm2 == pytest.approx(breakdown.side_mm**2)

    def test_u_shape_around_sweet_spot(self, model):
        # Area decreases toward 64 then increases (the Fig 8 balance).
        areas = [model.area_mm2(w) for w in (16, 32, 64, 128, 256)]
        assert areas[0] > areas[1] > areas[2]
        assert areas[2] < areas[3] < areas[4]

    def test_32_and_128_are_symmetric(self, model):
        # With W(32) = 22 and W(128) = 7 the calibrated coefficients make
        # the two off-sweet-spot points nearly equal, as in Fig 8.
        assert model.area_mm2(32) == pytest.approx(model.area_mm2(128), rel=0.01)


class TestModelValidation:
    def test_empty_sweep_rejected(self, model):
        with pytest.raises(ValueError):
            model.sweet_spot(())

    def test_figure8_series_shape(self):
        series = fig08.compute().breakdowns
        assert [b.payload_wdm for b in series] == [16, 24, 32, 48, 64, 96, 128, 192, 256]
