"""Tests for the device-level delays the hop solver reads: waveguide
propagation, the inter-router link, the crossbar traversal and the 16 nm
per-scenario component delays (all in :mod:`repro.photonics.latency`)."""

import pytest

from repro.photonics import constants
from repro.photonics.latency import (
    crossbar_traversal_ps,
    link_delay_ps,
    scenario_delays,
)


class TestWaveguide:
    def test_propagation_delay(self):
        assert link_delay_ps(1.0) == pytest.approx(10.45)
        assert link_delay_ps(2.0) == pytest.approx(20.9)

    def test_zero_length_allowed(self):
        assert link_delay_ps(0.0) == 0.0


class TestRingResonator:
    def test_scenario_drive_delay(self):
        ring = scenario_delays("average")
        assert ring.resonator_drive_ps == constants.RESONATOR_DRIVE_DELAY_PS["average"]


class TestModulatorReceiver:
    def test_scenario_delays(self):
        scenario = scenario_delays("pessimistic")
        assert scenario.transmit_ps == 19.4
        assert scenario.receive_ps == 3.7


class TestLinkAndRouterOptics:
    def test_default_link_is_one_node_pitch(self):
        assert constants.HOP_LENGTH_MM == pytest.approx(
            constants.NODE_AREA_SINGLE_CORE_MM2**0.5
        )
        assert link_delay_ps(constants.HOP_LENGTH_MM) == pytest.approx(
            constants.HOP_LENGTH_MM * constants.WAVEGUIDE_DELAY_PS_PER_MM
        )

    def test_crossbar_traversal_grows_weakly_with_wdm(self):
        t32 = crossbar_traversal_ps(32)
        t128 = crossbar_traversal_ps(128)
        assert t32 < t128
        assert (t128 - t32) < 0.1  # weak enough to keep Fig 6 WDM-independent

    def test_crossbar_traversal_rejects_bad_wdm(self):
        with pytest.raises(ValueError):
            crossbar_traversal_ps(0)
