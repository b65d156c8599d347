"""Tests for the Fig 4 delay-scaling models."""

import pytest

from repro.harness.experiments import fig04
from repro.photonics import constants
from repro.photonics.latency import scenario_delays
from repro.photonics.scaling import (
    ANCHOR_NODES_NM,
    DelayScalingModel,
    SCENARIO_FIT,
    receive_model,
    transmit_model,
)


class TestScenarioDelays:
    def test_canonical_16nm_endpoints(self):
        # Paper section 3.1: transmit 8.0-19.4 ps, receive 1.8-3.7 ps.
        assert scenario_delays("optimistic").transmit_ps == 8.0
        assert scenario_delays("pessimistic").transmit_ps == 19.4
        assert scenario_delays("optimistic").receive_ps == 1.8
        assert scenario_delays("pessimistic").receive_ps == 3.7

    def test_average_is_between_extremes(self):
        opt, avg, pess = map(scenario_delays, constants.SCALING_SCENARIOS)
        assert opt.transmit_ps < avg.transmit_ps < pess.transmit_ps
        assert opt.receive_ps < avg.receive_ps < pess.receive_ps
        assert opt.resonator_drive_ps < avg.resonator_drive_ps < pess.resonator_drive_ps

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            scenario_delays("hopeful")

    def test_fit_kind_mapping(self):
        assert SCENARIO_FIT == {
            "optimistic": "logarithmic",
            "average": "linear",
            "pessimistic": "exponential",
        }


class TestCurveFits:
    @pytest.mark.parametrize("fit_kind", ["linear", "logarithmic", "exponential"])
    def test_fits_are_decreasing_toward_16nm(self, fit_kind):
        model = transmit_model(fit_kind)
        trend = model.trend([45.0, 32.0, 22.0, 16.0])
        assert trend == sorted(trend, reverse=True)

    def test_fit_ordering_at_16nm(self):
        # Log extrapolates lowest (optimistic), exp highest (pessimistic).
        log = transmit_model("logarithmic").delay_at(16.0)
        lin = transmit_model("linear").delay_at(16.0)
        exp = transmit_model("exponential").delay_at(16.0)
        assert log < lin < exp

    def test_transmit_fit_lands_near_paper_range(self):
        log = transmit_model("logarithmic").delay_at(16.0)
        exp = transmit_model("exponential").delay_at(16.0)
        assert log == pytest.approx(8.0, rel=0.35)
        assert exp == pytest.approx(19.4, rel=0.35)

    def test_receive_fit_lands_near_paper_range(self):
        log = receive_model("logarithmic").delay_at(16.0)
        exp = receive_model("exponential").delay_at(16.0)
        assert log == pytest.approx(1.8, rel=0.35)
        assert exp == pytest.approx(3.7, rel=0.35)

    def test_fit_interpolates_anchor_region(self):
        model = transmit_model("linear")
        for node, anchor in zip(ANCHOR_NODES_NM, (42.0, 28.0, 19.0)):
            assert model.delay_at(node) == pytest.approx(anchor, rel=0.15)

    def test_invalid_fit_kind_rejected(self):
        with pytest.raises(ValueError):
            DelayScalingModel([45, 22], [10, 5], "cubic")

    def test_non_positive_anchor_rejected(self):
        with pytest.raises(ValueError):
            DelayScalingModel([45, 22], [10, 0], "linear")

    def test_delay_never_negative(self):
        model = transmit_model("logarithmic")
        assert model.delay_at(1.0) >= 0.0

    def test_non_positive_query_rejected(self):
        with pytest.raises(ValueError):
            transmit_model("linear").delay_at(0.0)


class TestFigure4Series:
    def test_series_structure(self):
        series = fig04.compute().series
        assert set(series) == {"transmit", "receive"}
        for component in series.values():
            assert set(component) == set(SCENARIO_FIT)

    def test_transmit_above_receive_everywhere(self):
        series = fig04.compute().series
        for scenario in constants.SCALING_SCENARIOS:
            for tx, rx in zip(series["transmit"][scenario], series["receive"][scenario]):
                assert tx > rx
